package ir

import "strconv"

// NoBank marks an instruction that does not touch memory.
const NoBank = -1

// NoHome marks an instruction without a preplacement constraint.
const NoHome = -1

// Instr is one node of a dependence graph.
//
// Instructions are identified by their position in Graph.Instrs; ID always
// equals that index. Args lists the IDs of the instructions producing each
// operand, in operand order. An instruction may consume the same producer
// more than once.
type Instr struct {
	// ID is the index of this instruction in its Graph.
	ID int
	// Op is the opcode.
	Op Op
	// Args are producer instruction IDs, one per operand.
	Args []int
	// Imm is the immediate payload for ConstInt.
	Imm int64
	// FImm is the immediate payload for ConstFloat.
	FImm float64
	// Bank is the memory bank for Load/Store, or NoBank.
	Bank int
	// Home is the cluster this instruction must be assigned to, or NoHome.
	// Instructions with Home >= 0 are "preplaced" in the paper's sense:
	// the constraint comes from congruence analysis (memory banking) or
	// from values live across scheduling regions.
	Home int
	// Name is an optional human-readable label used in dumps and DOT
	// output; it has no semantic meaning.
	Name string
}

// Preplaced reports whether the instruction carries a home-cluster
// constraint.
func (in *Instr) Preplaced() bool { return in.Home != NoHome }

// String renders the instruction in the .ddg text form, for example
// "7: add %3 %5" or "2: load %0 bank=1 @home=3".
func (in *Instr) String() string {
	return string(in.AppendText(nil))
}

// AppendText appends the instruction's .ddg text form (String) to b and
// returns the extended buffer. It is the one renderer of the format: it
// formats with strconv only, so a caller that sizes b up front renders a
// whole graph without a further allocation. A float immediate is printed
// in strconv's shortest 'g' form, which is what fmt's %g prints.
func (in *Instr) AppendText(b []byte) []byte {
	b = strconv.AppendInt(b, int64(in.ID), 10)
	b = append(b, ": "...)
	b = in.Op.appendName(b)
	for _, a := range in.Args {
		b = append(b, " %"...)
		b = strconv.AppendInt(b, int64(a), 10)
	}
	switch in.Op {
	case ConstInt:
		b = append(b, ' ')
		b = strconv.AppendInt(b, in.Imm, 10)
	case ConstFloat:
		b = append(b, ' ')
		b = strconv.AppendFloat(b, in.FImm, 'g', -1, 64)
	}
	if in.Bank != NoBank {
		b = append(b, " bank="...)
		b = strconv.AppendInt(b, int64(in.Bank), 10)
	}
	if in.Preplaced() {
		b = append(b, " @home="...)
		b = strconv.AppendInt(b, int64(in.Home), 10)
	}
	if in.Name != "" {
		b = append(b, " ; "...)
		b = append(b, in.Name...)
	}
	return b
}
