// Package sim executes dependence graphs and schedules, giving the
// repository end-to-end verification: a schedule is correct only if running
// it on the machine model produces exactly the values and final memory that
// sequential reference execution of the graph produces.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/ir"
)

// Value is a runtime value: either an integer or a float. The zero Value is
// integer zero, which is also what loads of untouched memory return.
type Value struct {
	// I holds the payload of an integer value.
	I int64
	// F holds the payload of a floating-point value.
	F float64
	// IsFloat selects which payload is meaningful.
	IsFloat bool
}

// IntVal wraps an int64.
func IntVal(v int64) Value { return Value{I: v} }

// FloatVal wraps a float64.
func FloatVal(v float64) Value { return Value{F: v, IsFloat: true} }

// AsFloat returns the numeric value as a float64, converting integers.
func (v Value) AsFloat() float64 {
	if v.IsFloat {
		return v.F
	}
	return float64(v.I)
}

// AsInt returns the numeric value as an int64, truncating floats.
func (v Value) AsInt() int64 {
	if v.IsFloat {
		return int64(v.F)
	}
	return v.I
}

// Equal compares two values for exact equality (NaN equals NaN so that
// deterministic reruns compare clean).
func (v Value) Equal(o Value) bool {
	if v.IsFloat != o.IsFloat {
		return false
	}
	if v.IsFloat {
		if math.IsNaN(v.F) && math.IsNaN(o.F) {
			return true
		}
		return v.F == o.F
	}
	return v.I == o.I
}

// String formats the value.
func (v Value) String() string {
	if v.IsFloat {
		return fmt.Sprintf("%g", v.F)
	}
	return fmt.Sprintf("%d", v.I)
}

func shiftAmount(v Value) uint { return uint(v.AsInt()) % 64 }

// eval computes the result of a non-memory instruction from its operand
// values. It panics on memory ops (the executor handles those) and on
// opcodes with no result.
func eval(in *ir.Instr, args []Value) Value {
	op := in.Op
	bin := func() (int64, int64) { return args[0].AsInt(), args[1].AsInt() }
	fbin := func() (float64, float64) { return args[0].AsFloat(), args[1].AsFloat() }
	switch op {
	case ir.ConstInt:
		return IntVal(in.Imm)
	case ir.ConstFloat:
		return FloatVal(in.FImm)
	case ir.Add:
		a, b := bin()
		return IntVal(a + b)
	case ir.Sub:
		a, b := bin()
		return IntVal(a - b)
	case ir.Mul:
		a, b := bin()
		return IntVal(a * b)
	case ir.Div:
		a, b := bin()
		if b == 0 {
			return IntVal(0)
		}
		return IntVal(a / b)
	case ir.Rem:
		a, b := bin()
		if b == 0 {
			return IntVal(0)
		}
		return IntVal(a % b)
	case ir.And:
		a, b := bin()
		return IntVal(a & b)
	case ir.Or:
		a, b := bin()
		return IntVal(a | b)
	case ir.Xor:
		a, b := bin()
		return IntVal(a ^ b)
	case ir.Shl:
		return IntVal(args[0].AsInt() << shiftAmount(args[1]))
	case ir.Shr:
		return IntVal(int64(uint64(args[0].AsInt()) >> shiftAmount(args[1])))
	case ir.Sra:
		return IntVal(args[0].AsInt() >> shiftAmount(args[1]))
	case ir.Rotl:
		return IntVal(int64(bits.RotateLeft64(uint64(args[0].AsInt()), int(shiftAmount(args[1])))))
	case ir.Neg:
		return IntVal(-args[0].AsInt())
	case ir.Not:
		return IntVal(^args[0].AsInt())
	case ir.Slt:
		a, b := bin()
		if a < b {
			return IntVal(1)
		}
		return IntVal(0)
	case ir.Seq:
		a, b := bin()
		if a == b {
			return IntVal(1)
		}
		return IntVal(0)
	case ir.Min:
		a, b := bin()
		if a < b {
			return IntVal(a)
		}
		return IntVal(b)
	case ir.Max:
		a, b := bin()
		if a > b {
			return IntVal(a)
		}
		return IntVal(b)
	case ir.Sel:
		if args[0].AsInt() != 0 {
			return args[1]
		}
		return args[2]
	case ir.FAdd:
		a, b := fbin()
		return FloatVal(a + b)
	case ir.FSub:
		a, b := fbin()
		return FloatVal(a - b)
	case ir.FMul:
		a, b := fbin()
		return FloatVal(a * b)
	case ir.FDiv:
		a, b := fbin()
		if b == 0 {
			return FloatVal(0)
		}
		return FloatVal(a / b)
	case ir.FNeg:
		return FloatVal(-args[0].AsFloat())
	case ir.FAbs:
		return FloatVal(math.Abs(args[0].AsFloat()))
	case ir.FSqrt:
		f := args[0].AsFloat()
		if f < 0 {
			return FloatVal(0)
		}
		return FloatVal(math.Sqrt(f))
	case ir.FMin:
		a, b := fbin()
		return FloatVal(math.Min(a, b))
	case ir.FMax:
		a, b := fbin()
		return FloatVal(math.Max(a, b))
	case ir.FMA:
		return FloatVal(args[0].AsFloat()*args[1].AsFloat() + args[2].AsFloat())
	case ir.IntToFloat:
		return FloatVal(float64(args[0].AsInt()))
	case ir.FloatToInt:
		return IntVal(args[0].AsInt())
	case ir.Copy:
		return args[0]
	}
	panic(fmt.Sprintf("sim: eval on %v", op))
}
