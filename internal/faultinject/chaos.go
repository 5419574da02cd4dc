package faultinject

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/robust"
	"repro/internal/schedule"
)

// Pipeline-level chaos classes. These corrupt what a scheduler is given (or
// what it computes internally) rather than the schedule it emits, so they
// exercise the full degradation ladder.
const (
	// ChaosPassPanic injects a convergent pass that panics.
	ChaosPassPanic = "pass-panic"
	// ChaosPassStall injects a convergent pass that blocks past any
	// reasonable time budget.
	ChaosPassStall = "pass-stall"
	// ChaosWeightSkew injects a pass that dumps the whole preference map
	// onto one cluster, corrupting every spatial weight at once.
	ChaosWeightSkew = "weight-skew"
	// ChaosDropMemEdge feeds the scheduler a graph missing one
	// memory-order edge.
	ChaosDropMemEdge = "drop-memedge"
	// ChaosRewireArg feeds the scheduler a graph with one data
	// dependence rewired to the wrong producer.
	ChaosRewireArg = "rewire-arg"
	// ChaosLatencyLiar runs the scheduler against a machine model whose
	// latency table lies.
	ChaosLatencyLiar = "latency-liar"
)

// PipelineClasses lists the pipeline-level chaos classes, in a stable order.
func PipelineClasses() []string {
	return []string{
		ChaosPassPanic, ChaosPassStall, ChaosWeightSkew,
		ChaosDropMemEdge, ChaosRewireArg, ChaosLatencyLiar,
	}
}

// Classes lists every chaos class accepted by Chaos.Ladder: the pipeline
// classes plus every schedule-corruption class (which Chaos applies to the
// primary rung's output).
func Classes() []string {
	return append(PipelineClasses(), ScheduleClasses()...)
}

// PanicPass is a convergent pass that panics when run.
type PanicPass struct{}

// Name identifies the pass in traces.
func (PanicPass) Name() string { return "CHAOS-PANIC" }

// Run panics unconditionally.
func (PanicPass) Run(s *core.State) { panic("faultinject: injected pass panic") }

// StallPass is a convergent pass that sleeps for D, modelling a pass stuck
// in a pathological descent.
type StallPass struct {
	// D is how long Run blocks.
	D time.Duration
}

// Name identifies the pass in traces.
func (StallPass) Name() string { return "CHAOS-STALL" }

// Run blocks for D.
func (p StallPass) Run(s *core.State) { time.Sleep(p.D) }

// SkewPass zeroes every cluster weight except Cluster's, corrupting the
// whole preference map in one step. On machines where the resulting
// assignment is illegal (Raw memory locality) the convergent rung fails;
// elsewhere it merely produces a terrible but legal schedule — exactly the
// "no single pass can wreck legality" property the ladder relies on.
type SkewPass struct {
	// Cluster receives all spatial weight.
	Cluster int
}

// Name identifies the pass in traces.
func (SkewPass) Name() string { return "CHAOS-SKEW" }

// Run dumps every instruction's spatial weight onto one cluster.
func (p SkewPass) Run(s *core.State) {
	for i := 0; i < s.W.N(); i++ {
		for c := 0; c < s.W.Clusters(); c++ {
			if c != p.Cluster {
				s.W.MulCluster(i, c, 0)
			}
		}
	}
}

// LyingModel returns a copy of m whose latency table lies about common
// opcodes (long operations reported short, short ones long). Schedulers
// trusting it record wrong placement latencies, which the legality gate
// catches against the true model.
func LyingModel(m *machine.Model) *machine.Model {
	out := m.WithOpLatency(ir.Add, m.OpLatency(ir.Add)+3)
	for _, op := range []ir.Op{ir.Load, ir.Mul, ir.FMul, ir.FAdd, ir.Div} {
		out = out.WithOpLatency(op, 1)
	}
	out.Name = m.Name // keep pass-sequence selection stable
	return out
}

// Chaos configures one deterministic fault injection.
type Chaos struct {
	// Class is the fault class, one of Classes().
	Class string
	// Seed drives every random choice the injection makes.
	Seed int64
	// Stall is how long ChaosPassStall blocks (default 30s).
	Stall time.Duration
}

// prependPass returns seq with p inserted at the front.
func prependPass(p core.Pass, seq []core.Pass) []core.Pass {
	return append([]core.Pass{p}, seq...)
}

// Ladder builds the default degradation ladder for m with this chaos
// injected. Pass poisons and input lies (graph and latency classes)
// corrupt both convergent rungs — the fault models a broken convergent
// pipeline, and falling through to a baseline is the behaviour under test.
// Schedule-corruption classes wrap only the primary rung's output,
// modelling a single faulty scheduler. Corrupted rungs are renamed with a
// "!class" suffix so reports show exactly what was injected where.
//
// The returned cache identity names the class and both seeds, so a
// chaos-mode service never serves schedules cached under another fault.
func (c Chaos) Ladder(m *machine.Model, seed int64) ([]robust.Rung, string, error) {
	ladder := robust.DefaultLadder(m, seed)
	seq := passes.ForMachine(m.Name)
	trunc := robust.TruncatedSequence(seq)
	poisonConvergent := func(p core.Pass) {
		ladder[0] = robust.ConvergentRung("convergent!"+c.Class, m, prependPass(p, seq), seed)
		ladder[1] = robust.ConvergentRung("convergent-truncated!"+c.Class, m, prependPass(p, trunc), seed+1)
	}
	switch c.Class {
	case ChaosPassPanic:
		poisonConvergent(PanicPass{})
	case ChaosPassStall:
		d := c.Stall
		if d == 0 {
			d = 30 * time.Second
		}
		poisonConvergent(StallPass{D: d})
	case ChaosWeightSkew:
		skew := int(c.Seed % int64(m.NumClusters))
		if skew < 0 {
			skew += m.NumClusters
		}
		poisonConvergent(SkewPass{Cluster: skew})
	case ChaosDropMemEdge, ChaosRewireArg:
		mutate := DropMemEdge
		if c.Class == ChaosRewireArg {
			mutate = RewireArg
		}
		for i := 0; i < 2; i++ {
			ladder[i] = wrapGraph(ladder[i], c.Class, mutate, c.Seed)
		}
	case ChaosLatencyLiar:
		liar := LyingModel(m)
		ladder[0] = robust.ConvergentRung("convergent!"+c.Class, liar, seq, seed)
		ladder[1] = robust.ConvergentRung("convergent-truncated!"+c.Class, liar, trunc, seed+1)
	default:
		if !isScheduleClass(c.Class) {
			return nil, "", fmt.Errorf("faultinject: unknown chaos class %q", c.Class)
		}
		ladder[0] = wrapOutput(ladder[0], c.Class, c.Seed)
	}
	return ladder, fmt.Sprintf("chaos:%s:%d:seed=%d", c.Class, c.Seed, seed), nil
}

func isScheduleClass(class string) bool {
	for _, sc := range ScheduleClasses() {
		if sc == class {
			return true
		}
	}
	return false
}

// wrapGraph makes a rung schedule a mutated copy of its input graph.
func wrapGraph(r robust.Rung, class string, mutate func(*ir.Graph, int64) (*ir.Graph, bool), seed int64) robust.Rung {
	inner := r.Run
	return robust.Rung{Name: r.Name + "!" + class, Run: func(ctx context.Context, g *ir.Graph) (*schedule.Schedule, error) {
		if mutated, ok := mutate(g, seed); ok {
			g = mutated
		}
		return inner(ctx, g)
	}}
}

// wrapOutput makes a rung corrupt its own output schedule.
func wrapOutput(r robust.Rung, class string, seed int64) robust.Rung {
	inner := r.Run
	return robust.Rung{Name: r.Name + "!" + class, Run: func(ctx context.Context, g *ir.Graph) (*schedule.Schedule, error) {
		s, err := inner(ctx, g)
		if err != nil {
			return nil, err
		}
		if mutated, _, ok := MutateSchedule(s, class, seed); ok {
			return mutated, nil
		}
		return s, nil
	}}
}
