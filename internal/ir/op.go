// Package ir defines the dependence-graph intermediate representation that
// every scheduler in this repository consumes.
//
// A scheduling unit is an ir.Graph: a DAG whose nodes are instructions and
// whose edges are data dependences (operand order) plus explicit memory-order
// edges. The instruction set is a small MIPS-R4000-flavoured mix of integer,
// floating-point and banked memory operations, rich enough to give every
// benchmark kernel executable semantics so that schedules can be simulated
// and verified, yet small enough that machine models stay simple.
package ir

import "strconv"

// Op identifies an instruction opcode.
type Op int

// The instruction set. Ordering groups opcodes by class; use the predicate
// methods (IsMemory, IsFloat, ...) rather than numeric ranges.
const (
	// Nop does nothing and produces no value. It exists for padding and
	// for tests that need a zero-latency placeholder.
	Nop Op = iota

	// ConstInt materialises the integer immediate Instr.Imm.
	ConstInt
	// ConstFloat materialises the floating immediate Instr.FImm.
	ConstFloat

	// Integer ALU operations (two operands unless noted).
	Add
	Sub
	Mul
	Div // integer division; division by zero yields zero (simulator rule)
	Rem
	And
	Or
	Xor
	Shl  // shift left by operand 1 (mod 64)
	Shr  // logical shift right by operand 1 (mod 64)
	Sra  // arithmetic shift right by operand 1 (mod 64)
	Rotl // rotate left by operand 1 (mod 64)
	Neg  // one operand
	Not  // one operand, bitwise complement
	Slt  // set-less-than: 1 if a < b else 0
	Seq  // set-equal: 1 if a == b else 0
	Min  // integer minimum
	Max  // integer maximum
	Sel  // select: a != 0 ? b : c (three operands)

	// Floating-point operations.
	FAdd
	FSub
	FMul
	FDiv
	FNeg  // one operand
	FAbs  // one operand
	FSqrt // one operand; negative input yields zero (simulator rule)
	FMin
	FMax
	FMA // fused multiply-add: a*b + c (three operands)

	// Conversions.
	IntToFloat
	FloatToInt

	// Memory operations. Memory is organised as numbered banks of int64
	// addressed cells (see internal/sim). Instr.Bank selects the bank.
	//
	// Load: operand 0 is the address; result is the loaded value.
	// Store: operand 0 is the address, operand 1 the value; no result.
	Load
	Store

	// Copy forwards its single operand unchanged. The list schedulers
	// materialise inter-cluster moves as Copy-like communication
	// operations; Copy in a source graph is an ordinary unary op.
	Copy

	numOps
)

var opNames = [numOps]string{
	Nop:        "nop",
	ConstInt:   "const",
	ConstFloat: "fconst",
	Add:        "add",
	Sub:        "sub",
	Mul:        "mul",
	Div:        "div",
	Rem:        "rem",
	And:        "and",
	Or:         "or",
	Xor:        "xor",
	Shl:        "shl",
	Shr:        "shr",
	Sra:        "sra",
	Rotl:       "rotl",
	Neg:        "neg",
	Not:        "not",
	Slt:        "slt",
	Seq:        "seq",
	Min:        "min",
	Max:        "max",
	Sel:        "sel",
	FAdd:       "fadd",
	FSub:       "fsub",
	FMul:       "fmul",
	FDiv:       "fdiv",
	FNeg:       "fneg",
	FAbs:       "fabs",
	FSqrt:      "fsqrt",
	FMin:       "fmin",
	FMax:       "fmax",
	FMA:        "fma",
	IntToFloat: "i2f",
	FloatToInt: "f2i",
	Load:       "load",
	Store:      "store",
	Copy:       "copy",
}

// NumOps reports the number of defined opcodes. It is exported for tables
// indexed by Op (for example machine latency tables).
const NumOps = int(numOps)

// String returns the assembler-style mnemonic for the opcode.
func (op Op) String() string {
	if op < 0 || op >= numOps {
		return string(op.appendName(nil))
	}
	return opNames[op]
}

// appendName appends the mnemonic, or "op(N)" for an undefined opcode.
func (op Op) appendName(b []byte) []byte {
	if op < 0 || op >= numOps {
		b = append(b, "op("...)
		b = strconv.AppendInt(b, int64(op), 10)
		return append(b, ')')
	}
	return append(b, opNames[op]...)
}

// OpFromString returns the opcode with the given mnemonic, or false if the
// mnemonic is unknown. It is the inverse of Op.String and is used by the
// .ddg text format parser.
func OpFromString(s string) (Op, bool) {
	op, ok := opByName[s]
	return op, ok
}

// opByName inverts opNames. The .ddg parser looks up one mnemonic per
// line of every request body.
var opByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op, name := range opNames {
		m[name] = Op(op)
	}
	return m
}()

// Arity returns the number of operands the opcode requires, or -1 if the
// opcode accepts no operands (constants, Nop).
func (op Op) Arity() int {
	switch op {
	case Nop, ConstInt, ConstFloat:
		return 0
	case Neg, Not, FNeg, FAbs, FSqrt, IntToFloat, FloatToInt, Copy, Load:
		return 1
	case Sel, FMA:
		return 3
	case Store:
		return 2
	default:
		return 2
	}
}

// IsMemory reports whether the opcode accesses a memory bank.
func (op Op) IsMemory() bool { return op == Load || op == Store }

// IsConst reports whether the opcode materialises an immediate.
func (op Op) IsConst() bool { return op == ConstInt || op == ConstFloat }

// IsFloat reports whether the opcode computes on (or produces) floating-point
// values. Load/Store are polymorphic and report false.
func (op Op) IsFloat() bool {
	switch op {
	case ConstFloat, FAdd, FSub, FMul, FDiv, FNeg, FAbs, FSqrt, FMin, FMax, FMA, IntToFloat:
		return true
	}
	return false
}

// HasResult reports whether the opcode produces a value that other
// instructions may consume.
func (op Op) HasResult() bool { return op != Store && op != Nop }

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op >= 0 && op < numOps }
