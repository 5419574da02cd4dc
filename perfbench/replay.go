package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/robust"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// replay runs every distinct input through the public functions of the
// layers the service composes, one span tree per replayed request:
//
//	replay
//	├─ irtext.parse
//	├─ ir.canonical
//	├─ engine.schedule
//	│  └─ robust.rung                 (cold and scale only)
//	│     ├─ core.state_init
//	│     ├─ passes.<NAME>, core.normalize   (per pass)
//	│     └─ listsched.run
//	├─ schedule.validate
//	└─ sim.verify
//
// On warm the engine already holds the schedule, so engine.schedule is the
// cache read and its rehydrate re-gate; core, passes and listsched do no
// work, as in the service. Elsewhere every call misses, and the engine walks
// the default ladder whose first rung is the service's own convergent rung
// (robust.ConvergentRung over the machine's pass sequence), with each pass
// wrapped in a span; timedRung derives the other steps from the gaps.
func replay(w *workload, rec *recorder) (int, error) {
	n := 0
	eng := engine.New(1, 256)
	for r := 0; r < w.replayRounds; r++ {
		for j, in := range w.inputs {
			seed := w.seedBase - 1000 - int64(n)
			if w.fixedSeed {
				seed = w.seedBase
			}
			if r == 0 && w.fixedSeed {
				// Fill the cache untimed, as the warm workload's set-up does.
				g, err := irtext.Parse(bytes.NewReader(in.body))
				if err != nil {
					return n, err
				}
				if res := eng.Schedule(context.Background(), defaultJob(g, in.model, seed)); res.Err != nil {
					return n, fmt.Errorf("replay fill %s: %w", in.name, res.Err)
				}
			}
			sched, err := replayOne(w, in, eng, seed, int64(r*len(w.inputs)+j), rec)
			if err != nil {
				return n, err
			}
			if !w.fixedSeed {
				if err := sameAsCore(in, sched, seed); err != nil {
					return n, err
				}
			}
			n++
		}
	}
	return n, nil
}

func replayOne(w *workload, in *input, eng *engine.Engine, seed, req int64, rec *recorder) (*schedule.Schedule, error) {
	ctx, end := rec.root(context.Background(), "replay", req)
	defer end()

	_, done := rec.child(ctx, "irtext.parse")
	g, err := irtext.Parse(bytes.NewReader(in.body))
	done()
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", in.name, err)
	}
	_, done = rec.child(ctx, "ir.canonical")
	g.Canonical()
	done()

	job := defaultJob(g, in.model, seed)
	if !w.fixedSeed {
		job.Opts.Ladder = robust.DefaultLadder(in.model, seed)
		job.Opts.Ladder[0] = timedRung(rec, in.model, seed)
		job.LadderID = "perfbench-replay:" + robust.DefaultLadderID(in.model, seed)
	}
	ectx, done := rec.child(ctx, "engine.schedule")
	res := eng.Schedule(ectx, job)
	done()
	if res.Err != nil {
		return nil, fmt.Errorf("replay %s: %w", in.name, res.Err)
	}
	if res.CacheHit != w.fixedSeed {
		return nil, fmt.Errorf("replay %s: cache hit %v, want %v", in.name, res.CacheHit, w.fixedSeed)
	}

	_, done = rec.child(ctx, "schedule.validate")
	err = res.Schedule.Validate()
	done()
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", in.name, err)
	}
	_, done = rec.child(ctx, "sim.verify")
	_, err = sim.Verify(res.Schedule, sim.NewMemory())
	done()
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", in.name, err)
	}
	return res.Schedule, nil
}

// sameAsCore checks, untimed, that a replayed schedule is the one
// core.Schedule builds for the input and seed: the convergent rung served,
// and wrapping its passes changed nothing.
func sameAsCore(in *input, got *schedule.Schedule, seed int64) error {
	g, err := irtext.Parse(bytes.NewReader(in.body))
	if err != nil {
		return err
	}
	want, _, err := core.Schedule(g, in.model, passes.ForMachine(in.model.Name), seed)
	if err != nil {
		return fmt.Errorf("replay %s: core.Schedule: %w", in.name, err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		return fmt.Errorf("replay %s: replayed schedule differs from core.Schedule", in.name)
	}
	return nil
}

// defaultJob is the engine job schedd builds for a default request.
func defaultJob(g *ir.Graph, m *machine.Model, seed int64) engine.Job {
	return engine.Job{ID: g.Name, Graph: g, Machine: m,
		Opts: robust.Options{Timeout: 2 * time.Second, Verify: true, Seed: seed}}
}

// timedRung is the default ladder's first rung, robust.ConvergentRung over
// the machine's pass sequence, with each pass's Run timed as a
// passes.<NAME> span under a robust.rung span. The rung's other steps run
// inside core.ScheduleCtx around the passes and are derived from the gaps:
//
//   - core.state_init: rung start to the first pass (graph check, pooled
//     state set-up, the first preferred-cluster read);
//   - core.normalize: each pass's end to the next pass's start
//     (PrefMap.NormalizeAll and the churn count); the last pass's is taken
//     to be the mean of the others;
//   - listsched.run: the rest of the rung (the convergence result,
//     listsched.SpreadConsts, the height tie-break and listsched.Run).
func timedRung(rec *recorder, m *machine.Model, seed int64) robust.Rung {
	type mark struct {
		pass       string
		start, end int64
	}
	seq := passes.ForMachine(m.Name)
	marks := make([]mark, 0, len(seq))
	wrapped := make([]core.Pass, len(seq))
	for i, p := range seq {
		wrapped[i] = core.PassFunc{Label: p.Name(), Fn: func(s *core.State) {
			start := rec.now()
			p.Run(s)
			marks = append(marks, mark{p.Name(), start, rec.now()})
		}}
	}
	inner := robust.ConvergentRung("convergent", m, wrapped, seed)
	return robust.Rung{Name: inner.Name, Run: func(ctx context.Context, g *ir.Graph) (*schedule.Schedule, error) {
		ctx, end := rec.child(ctx, "robust.rung")
		marks = marks[:0]
		start := rec.now()
		sched, err := inner.Run(ctx, g)
		stop := rec.now()
		end()
		if err != nil || len(marks) == 0 {
			return sched, err
		}
		rec.add(ctx, "core.state_init", start, marks[0].start)
		var gaps int64
		for k, mk := range marks {
			rec.add(ctx, "passes."+mk.pass, mk.start, mk.end)
			if k > 0 {
				rec.add(ctx, "core.normalize", marks[k-1].end, mk.start)
				gaps += mk.start - marks[k-1].end
			}
		}
		converged := marks[len(marks)-1].end
		if len(marks) > 1 {
			last := converged
			converged = min(last+gaps/int64(len(marks)-1), stop)
			rec.add(ctx, "core.normalize", last, converged)
		}
		rec.add(ctx, "listsched.run", converged, stop)
		return sched, nil
	}}
}
