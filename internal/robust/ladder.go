package robust

import (
	"context"
	"fmt"

	"repro/internal/baseline/pcc"
	"repro/internal/baseline/rawcc"
	"repro/internal/baseline/uas"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/listsched"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/schedule"
)

// ConvergentRung wraps the convergent scheduler with the given pass
// sequence and noise seed as a ladder rung.
func ConvergentRung(name string, m *machine.Model, seq []core.Pass, seed int64) Rung {
	return Rung{Name: name, Run: func(ctx context.Context, g *ir.Graph) (*schedule.Schedule, error) {
		s, _, err := core.ScheduleCtx(ctx, g, m, seq, seed)
		return s, err
	}}
}

// TruncatedSequence returns the first half of a pass sequence (rounded up),
// the degraded-mode sequence of the default ladder: fewer passes converge
// less but each pass is an independent heuristic, so a prefix still yields
// a complete preference map.
func TruncatedSequence(seq []core.Pass) []core.Pass {
	return seq[:(len(seq)+1)/2]
}

// BaselineRung returns the machine's strongest non-convergent scheduler:
// the Rawcc-style space-time scheduler on machines with owned memory banks
// (Raw), UAS on clustered VLIWs.
func BaselineRung(m *machine.Model) Rung {
	if m.RemoteMemPenalty < 0 {
		return rawccRung(m)
	}
	return uasRung(m)
}

// rawccRung wraps the Rawcc-style space-time scheduler as a ladder rung.
func rawccRung(m *machine.Model) Rung {
	return Rung{Name: "rawcc", Run: func(ctx context.Context, g *ir.Graph) (*schedule.Schedule, error) {
		return rawcc.Schedule(g, m)
	}}
}

// uasRung wraps unified assign-and-schedule as a ladder rung.
func uasRung(m *machine.Model) Rung {
	return Rung{Name: "uas", Run: func(ctx context.Context, g *ir.Graph) (*schedule.Schedule, error) {
		return uas.Schedule(g, m)
	}}
}

// ListRung is the last-resort rung: critical-path list scheduling with the
// trivial assignment (preplacement homes and bank owners honoured,
// everything else on cluster 0). It exercises no heuristic machinery at
// all, so it survives almost anything the richer schedulers choke on.
func ListRung(m *machine.Model) Rung {
	return Rung{Name: "list", Run: func(ctx context.Context, g *ir.Graph) (*schedule.Schedule, error) {
		assign := make([]int, g.Len())
		for i, in := range g.Instrs {
			switch {
			case in.Preplaced():
				assign[i] = in.Home
			case in.Op.IsMemory():
				assign[i] = m.BankOwner(in.Bank)
			}
		}
		return listsched.Run(g, m, listsched.Options{Assignment: assign})
	}}
}

// DefaultLadder is the degradation ladder the driver walks when Options.
// Ladder is nil:
//
//	convergent (full published sequence, seed)
//	→ convergent (truncated sequence, fresh seed)
//	→ rawcc or uas (machine-appropriate baseline)
//	→ single-cluster-style list baseline
//
// The truncated rung reseeds the noise pass, so a seed-dependent failure in
// the full sequence does not recur, matching the anytime-scheduling advice
// of the combinatorial-scheduling literature: always have a cheaper legal
// answer to fall back to.
func DefaultLadder(m *machine.Model, seed int64) []Rung {
	return ladder(m, "convergent", passes.ForMachine(m.Name), seed)
}

// DefaultLadderID returns a stable textual identity of the ladder that
// DefaultLadder(m, seed) builds: the pass-sequence identities and seeds of
// both convergent rungs plus the machine's baseline rung name. Prefixed
// with "default:", it is the cache-key component of every default-ladder
// job (Select's and internal/engine's nil-ladder keying), so it must change
// whenever DefaultLadder would walk different schedulers — a new pass in
// the sequence, a different truncation, or a different baseline all change
// the ID.
func DefaultLadderID(m *machine.Model, seed int64) string {
	return ladderID(m, "convergent", passes.ForMachine(m.Name), seed)
}

// ladder builds the four-rung degradation ladder over seq: the full and the
// truncated convergent rung (named name and name-truncated), then the
// machine's baseline and the list rung.
func ladder(m *machine.Model, name string, seq []core.Pass, seed int64) []Rung {
	return []Rung{
		ConvergentRung(name, m, seq, seed),
		ConvergentRung(name+"-truncated", m, TruncatedSequence(seq), seed+1),
		BaselineRung(m),
		ListRung(m),
	}
}

// ladderID is the cache identity of ladder(m, name, seq, seed).
func ladderID(m *machine.Model, name string, seq []core.Pass, seed int64) string {
	return convergentID(name, seq, seed) + ">" +
		convergentID(name+"-truncated", TruncatedSequence(seq), seed+1) + ">" +
		BaselineRung(m).Name + ">list"
}

// convergentID is the cache identity of ConvergentRung(name, m, seq, seed):
// the pass-sequence identity and the noise seed.
func convergentID(name string, seq []core.Pass, seed int64) string {
	return fmt.Sprintf("%s[%s|seed=%d]", name, core.SequenceID(seq), seed)
}

// Select builds the ladder for a scheduler name and the fallback choice,
// with its cache identity. It is the one place that maps the names schedd
// and convsched accept — convergent, convergent-tuned (the oracle-tuned
// pass sequence, passes.TunedForMachine), rawcc, uas, pcc and list — to
// rungs:
//
//   - without fallback, the named scheduler alone;
//   - a convergent scheduler with fallback, the four-rung degradation
//     ladder over its pass sequence (for convergent, DefaultLadder);
//   - any other scheduler with fallback, the named rung and then the list
//     rung. Falling back from one baseline to another would silently
//     re-label the experiment being run.
//
// A convergent rung's identity embeds its pass sequence, so a changed
// sequence can never serve schedules persisted under the old one. The
// baselines take no seed and no pass sequence: the name is all. The
// default ladder's identity carries the "default:" prefix under which the
// engine keys a job with a nil ladder, so both key it alike.
func Select(m *machine.Model, scheduler string, fallback bool, seed int64) ([]Rung, string, error) {
	var seq []core.Pass
	var r Rung
	switch scheduler {
	case "convergent":
		seq = passes.ForMachine(m.Name)
	case "convergent-tuned":
		seq = passes.TunedForMachine(m.Name)
	case "rawcc":
		r = rawccRung(m)
	case "uas":
		r = uasRung(m)
	case "pcc":
		r = Rung{Name: "pcc", Run: func(ctx context.Context, g *ir.Graph) (*schedule.Schedule, error) {
			return pcc.Schedule(g, m, pcc.Options{})
		}}
	case "list":
		r = ListRung(m)
	default:
		return nil, "", fmt.Errorf("robust: unknown scheduler %q", scheduler)
	}
	switch {
	case seq != nil && fallback && scheduler == "convergent":
		return ladder(m, scheduler, seq, seed), "default:" + ladderID(m, scheduler, seq, seed), nil
	case seq != nil && fallback:
		return ladder(m, scheduler, seq, seed), ladderID(m, scheduler, seq, seed), nil
	case seq != nil:
		return []Rung{ConvergentRung(scheduler, m, seq, seed)}, convergentID(scheduler, seq, seed), nil
	case fallback && scheduler != "list":
		return []Rung{r, ListRung(m)}, r.Name + ">list", nil
	default:
		return []Rung{r}, r.Name, nil
	}
}
