package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/listsched"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// Result is the converged preferences list scheduling reads.
type Result struct {
	// Assignment is the preferred cluster per instruction.
	Assignment []int
	// PreferredTime is the preferred time slot per instruction; it feeds
	// the list scheduler as priority.
	PreferredTime []int
}

// RunPasses is the convergent loop: each pass runs over the state and is
// followed by renormalization. A trace carried by the context receives one
// PassDelta per pass — the per-pass churn behind the paper's Figures 7 and
// 9 — and recording only reads the map, so traced and untraced runs leave
// byte-identical states. RunPasses rewinds the state's scratch arena;
// untraced, it performs no heap allocations once the state is warm (arena
// and caches at their high-water marks), which the allocation-regression
// tests pin at zero allocs/op.
func RunPasses(ctx context.Context, s *State, passes []Pass) {
	sc := s.Scratch()
	sc.Rewind()
	tr := obs.FromContext(ctx)
	if tr == nil {
		for _, p := range passes {
			p.Run(s)
			s.W.NormalizeAll()
		}
		return
	}
	rung := obs.RungFromContext(ctx)
	n := s.Graph.Len()
	// The churn trackers live in the scratch arena alongside whatever the
	// passes draw; the next run's rewind releases them together.
	prev := s.W.PreferredClustersInto(sc.Ints(n))
	cur := sc.Ints(n)
	before := clusterMarginals(s.W)
	for _, p := range passes {
		p.Run(s)
		s.W.NormalizeAll()
		s.W.PreferredClustersInto(cur)
		after := clusterMarginals(s.W)
		d := passDelta(s.W, before, after, prev, cur)
		d.Rung = rung
		d.Pass = p.Name()
		tr.RecordPass(d)
		before = after
		prev, cur = cur, prev
	}
}

// clusterMarginals returns the per-instruction cluster marginal distribution
// (normalized to sum 1). Reading the map only touches its lazy caches, never
// the weights, so this is observationally inert.
func clusterMarginals(w *PrefMap) [][]float64 {
	out := make([][]float64, w.N())
	for i := range out {
		total := w.Total(i)
		row := make([]float64, w.Clusters())
		for c := range row {
			if total > 0 {
				row[c] = w.ClusterWeight(i, c) / total
			}
		}
		out[i] = row
	}
	return out
}

// passDelta builds the obs record for one pass from the before/after
// marginal snapshots and the before/after preferred clusters.
func passDelta(w *PrefMap, before, after [][]float64, prev, cur []int) obs.PassDelta {
	n := w.N()
	d := obs.PassDelta{}
	for i := range cur {
		if cur[i] != prev[i] {
			d.Changed++
		}
	}
	type shift struct {
		instr int
		l1    float64
	}
	shifts := make([]shift, 0, n)
	d.MinTotal, d.MaxTotal = math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		l1 := 0.0
		for c := range after[i] {
			l1 += math.Abs(after[i][c] - before[i][c])
		}
		shifts = append(shifts, shift{i, l1})
		h := 0.0
		for _, m := range after[i] {
			if m > 0 {
				h -= m * math.Log(m)
			}
		}
		d.MeanEntropy += h
		t := w.Total(i)
		d.MinTotal = math.Min(d.MinTotal, t)
		d.MaxTotal = math.Max(d.MaxTotal, t)
	}
	if n > 0 {
		d.Fraction = float64(d.Changed) / float64(n)
		d.MeanEntropy /= float64(n)
	} else {
		d.MinTotal, d.MaxTotal = 1, 1
	}
	sort.SliceStable(shifts, func(a, b int) bool { return shifts[a].l1 > shifts[b].l1 })
	for k := 0; k < len(shifts) && k < obs.TopShiftK; k++ {
		s := shifts[k]
		if s.l1 == 0 {
			break
		}
		d.TopShifts = append(d.TopShifts, obs.WeightShift{
			Instr: s.instr, From: prev[s.instr], To: cur[s.instr], L1: s.l1,
		})
	}
	return d
}

// converge runs the pass sequence on s and reads off the converged
// preferences. The Result is freshly allocated: it outlives the (possibly
// pooled) state.
func converge(ctx context.Context, s *State, passes []Pass) *Result {
	RunPasses(ctx, s, passes)
	res := &Result{
		Assignment:    s.W.PreferredClustersInto(make([]int, s.Graph.Len())),
		PreferredTime: s.W.PreferredTimes(),
	}
	// Preplacement is a correctness constraint; PLACE biases hard toward
	// it, but the final assignment must honour it even if a later pass
	// diluted the bias.
	for _, i := range s.Graph.Preplaced() {
		res.Assignment[i] = s.Graph.Instrs[i].Home
	}
	return res
}

// Schedule runs the full convergent scheduler: converge preferences, then
// list-schedule with the preferred clusters as the assignment and the
// preferred times as priorities. Constants are rebalanced across their
// consumers' clusters first (see listsched.SpreadConsts), and preferred-time
// ties break toward the instruction heading the longest remaining chain.
func Schedule(g *ir.Graph, m *machine.Model, passes []Pass, seed int64) (*schedule.Schedule, *Result, error) {
	return ScheduleCtx(context.Background(), g, m, passes, seed)
}

// ScheduleCtx is Schedule with a context; a trace carried by the context
// records per-pass preference-map deltas during convergence. It runs on a
// state drawn from an internal pool and released before returning; the
// differential harness at the repository root proves that path
// byte-identical to a fresh NewState + ScheduleState run.
func ScheduleCtx(ctx context.Context, g *ir.Graph, m *machine.Model, passes []Pass, seed int64) (*schedule.Schedule, *Result, error) {
	if err := listsched.CheckGraph(g, m); err != nil {
		return nil, nil, err
	}
	s := newPooledState(g, m, seed)
	defer s.release()
	return scheduleState(ctx, s, passes)
}

// ScheduleState runs the full convergent scheduler on a caller-built state.
// It is the non-pooled twin of ScheduleCtx: the differential harness drives
// both over the same inputs to prove the pooled path changes nothing.
func ScheduleState(ctx context.Context, s *State, passes []Pass) (*schedule.Schedule, *Result, error) {
	if err := listsched.CheckGraph(s.Graph, s.Machine); err != nil {
		return nil, nil, err
	}
	return scheduleState(ctx, s, passes)
}

// scheduleState converges preferences on s and list-schedules the result.
func scheduleState(ctx context.Context, s *State, passes []Pass) (*schedule.Schedule, *Result, error) {
	g, m := s.Graph, s.Machine
	res := converge(ctx, s, passes)
	listsched.SpreadConsts(g, m, res.Assignment)
	h := g.Height(m.LatencyFunc())
	maxH := 1
	for _, v := range h {
		if v > maxH {
			maxH = v
		}
	}
	prio := make([]float64, len(res.PreferredTime))
	for i, t := range res.PreferredTime {
		// The height term is strictly smaller than 1, so it only ever
		// breaks ties between equal preferred times.
		prio[i] = float64(t) - float64(h[i])/float64(maxH+1)
	}
	sched, err := listsched.Run(g, m, listsched.Options{
		Assignment: res.Assignment,
		Priority:   prio,
	})
	if err != nil {
		return nil, res, fmt.Errorf("core: converged preferences do not schedule: %w", err)
	}
	return sched, res, nil
}

// RenderSpace draws the cluster-preference map as ASCII art in the style of
// the paper's Figure 4: one row per instruction, one column per cluster,
// darker glyphs meaning stronger preference.
func RenderSpace(w *PrefMap) string {
	glyphs := []byte(" .:-=+*#%@")
	var b strings.Builder
	for i := 0; i < w.N(); i++ {
		total := w.Total(i)
		fmt.Fprintf(&b, "%4d |", i)
		for c := 0; c < w.Clusters(); c++ {
			frac := 0.0
			if total > 0 {
				frac = w.ClusterWeight(i, c) / total
			}
			g := int(frac * float64(len(glyphs)))
			if g >= len(glyphs) {
				g = len(glyphs) - 1
			}
			b.WriteByte(glyphs[g])
		}
		b.WriteString("|\n")
	}
	return b.String()
}
