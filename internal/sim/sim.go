package sim

import (
	"errors"
	"fmt"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// Memory is banked storage: bank → address → value. Loads of untouched
// cells return the zero Value.
type Memory map[int]map[int64]Value

// NewMemory returns empty memory.
func NewMemory() Memory { return make(Memory) }

// Load reads one cell.
func (m Memory) Load(bank int, addr int64) Value {
	if b, ok := m[bank]; ok {
		return b[addr]
	}
	return Value{}
}

// Store writes one cell.
func (m Memory) Store(bank int, addr int64, v Value) {
	b, ok := m[bank]
	if !ok {
		b = make(map[int64]Value)
		m[bank] = b
	}
	b[addr] = v
}

// Clone deep-copies the memory.
func (m Memory) Clone() Memory {
	out := NewMemory()
	for bank, cells := range m {
		nb := make(map[int64]Value, len(cells))
		for a, v := range cells {
			nb[a] = v
		}
		out[bank] = nb
	}
	return out
}

// Equal reports whether two memories hold identical non-zero contents.
// Cells holding the zero Value compare equal to absent cells.
func (m Memory) Equal(o Memory) bool {
	covered := func(a, b Memory) bool {
		for bank, cells := range a {
			for addr, v := range cells {
				if v == (Value{}) {
					continue
				}
				if !b.Load(bank, addr).Equal(v) {
					return false
				}
			}
		}
		return true
	}
	return covered(m, o) && covered(o, m)
}

// Result captures one execution.
type Result struct {
	// Values holds the result of every instruction by ID; Stores and
	// Nops hold the zero Value.
	Values []Value
	// Memory is the final memory state.
	Memory Memory
	// Cycles is the schedule length (zero for reference execution).
	Cycles int
}

func execOne(g *ir.Graph, i int, values []Value, mem Memory) (Value, error) {
	in := g.Instrs[i]
	var buf [3]Value // every opcode's arity fits; eval does not retain args
	args := buf[:0]
	for _, a := range in.Args {
		args = append(args, values[a])
	}
	switch in.Op {
	case ir.Nop:
		return Value{}, nil
	case ir.Load:
		return mem.Load(in.Bank, args[0].AsInt()), nil
	case ir.Store:
		mem.Store(in.Bank, args[0].AsInt(), args[1])
		return Value{}, nil
	default:
		return eval(in, args), nil
	}
}

// Reference executes the graph sequentially in ID order (a topological
// order by construction) against a copy of the initial memory. This defines
// the semantics every schedule must reproduce.
func Reference(g *ir.Graph, initial Memory) (*Result, error) {
	g.Seal()
	mem := initial.Clone()
	values := make([]Value, g.Len())
	for i := range g.Instrs {
		v, err := execOne(g, i, values, mem)
		if err != nil {
			return nil, err
		}
		values[i] = v
	}
	return &Result{Values: values, Memory: mem}, nil
}

// Run validates the schedule and then executes it in schedule order: all
// instructions sorted by issue cycle (clusters are lockstep, so issue order
// is the architectural order; memory ops issuing in the same cycle on the
// same bank would be a race, which validation prevents via memory-order
// edges when the generator declares a conflict). The result must match
// Reference for the same initial memory; Verify packages that comparison.
func Run(s *schedule.Schedule, initial Memory) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid schedule: %w", err)
	}
	return run(s, initial)
}

// run is Run on a schedule the caller has already validated.
func run(s *schedule.Schedule, initial Memory) (*Result, error) {
	g := s.Graph
	order := issueOrder(s.Placements)
	mem := initial.Clone()
	values := make([]Value, g.Len())
	done := make([]bool, g.Len())
	for _, i := range order {
		for _, a := range g.Instrs[i].Args {
			if !done[a] {
				return nil, fmt.Errorf("sim: instruction %d executed before operand %%%d", i, a)
			}
		}
		v, err := execOne(g, i, values, mem)
		if err != nil {
			return nil, err
		}
		values[i] = v
		done[i] = true
	}
	return &Result{Values: values, Memory: mem, Cycles: s.Length()}, nil
}

// issueOrder returns the instruction IDs sorted by issue cycle, ties by ID.
// It is a least-significant-digit radix sort, one byte per pass, on each
// cycle's distance from the earliest. Every pass is stable and the first
// starts in ID order, so ties stay in ID order; the span sets the number of
// passes, two for any schedule shorter than 65,536 cycles.
func issueOrder(pl []schedule.Placement) []int {
	n := len(pl)
	buf := make([]int, 2*n)
	order, tmp := buf[:n:n], buf[n:]
	for i := range order {
		order[i] = i
	}
	if n == 0 {
		return order
	}
	lo, hi := pl[0].Start, pl[0].Start
	for _, p := range pl[1:] {
		lo, hi = min(lo, p.Start), max(hi, p.Start)
	}
	// The distance from lo, in uint64 arithmetic, is exact for any two
	// ints, so a span wider than MaxInt still sorts.
	span := uint64(hi) - uint64(lo)
	for shift := 0; span>>shift != 0; shift += 8 {
		var count [256]int
		for _, id := range order {
			count[byte((uint64(pl[id].Start)-uint64(lo))>>shift)]++
		}
		off := 0
		for b, c := range count {
			count[b] = off
			off += c
		}
		for _, id := range order {
			b := byte((uint64(pl[id].Start) - uint64(lo)) >> shift)
			tmp[count[b]] = id
			count[b]++
		}
		order, tmp = tmp, order
	}
	return order
}

// Verify validates the schedule, runs it and checks it against reference
// execution, returning the schedule's result on success and a diagnostic
// error on the first divergence.
func Verify(s *schedule.Schedule, initial Memory) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid schedule: %w", err)
	}
	return verifyValid(s, initial)
}

// verifyValid is Verify on a schedule the caller has already validated.
func verifyValid(s *schedule.Schedule, initial Memory) (*Result, error) {
	want, err := Reference(s.Graph, initial)
	if err != nil {
		return nil, err
	}
	got, err := run(s, initial)
	if err != nil {
		return nil, err
	}
	for i := range want.Values {
		if !got.Values[i].Equal(want.Values[i]) {
			return nil, fmt.Errorf("sim: instruction %d computed %v, reference %v", i, got.Values[i], want.Values[i])
		}
	}
	if !got.Memory.Equal(want.Memory) {
		return nil, fmt.Errorf("sim: final memory diverges from reference")
	}
	return got, nil
}

// Rejection classes of Gate, tested with errors.Is.
var (
	// ErrIllegal: the candidate does not fit the graph or fails
	// schedule.Validate against the pristine graph and machine.
	ErrIllegal = errors.New("sim: illegal schedule")
	// ErrWrongAnswer: the candidate is legal but its simulation diverges
	// from sequential reference execution.
	ErrWrongAnswer = errors.New("sim: wrong answer")
)

// gateError tags a rejection with its class while keeping the underlying
// diagnostic as the message.
type gateError struct {
	class error
	err   error
}

func (e *gateError) Error() string        { return e.err.Error() }
func (e *gateError) Unwrap() error        { return e.err }
func (e *gateError) Is(target error) bool { return target == e.class }

// Gate is the legality gate every served schedule passes — ladder rungs,
// oracle schedules and cache hits alike. It re-attaches the candidate's
// placements and communications to the pristine graph g and machine m, in
// fresh slices that share no backing array with the candidate, so nothing a
// scheduler did to its private inputs can leak into the accepted schedule.
// The shell is validated exactly once; when verify is set it is then
// simulated against reference execution from initial (nil means empty
// memory) without validating again. A rejection wraps ErrIllegal or
// ErrWrongAnswer.
func Gate(cand *schedule.Schedule, g *ir.Graph, m *machine.Model, verify bool, initial Memory) (*schedule.Schedule, error) {
	if len(cand.Placements) != g.Len() {
		return nil, &gateError{ErrIllegal, fmt.Errorf("schedule places %d of %d instructions", len(cand.Placements), g.Len())}
	}
	shell := &schedule.Schedule{
		Graph:      g,
		Machine:    m,
		Placements: append([]schedule.Placement(nil), cand.Placements...),
		Comms:      append([]schedule.Comm(nil), cand.Comms...),
	}
	if err := shell.Validate(); err != nil {
		return nil, &gateError{ErrIllegal, err}
	}
	if verify {
		if initial == nil {
			initial = NewMemory()
		}
		if _, err := verifyValid(shell, initial); err != nil {
			return nil, &gateError{ErrWrongAnswer, err}
		}
	}
	return shell, nil
}
