// Package robust is the resilient scheduling driver: it wraps any scheduler
// behind panic isolation, a per-attempt time budget, and a post-hoc legality
// gate, and walks a graceful-degradation ladder of schedulers until one
// produces a schedule that provably computes the right answer.
//
// The convergent-scheduling paper sells robustness at the heuristic level —
// no single pass can wreck the schedule because every decision is a
// revisable preference. This package extends that contract to the process
// level, which is what a served scheduler needs: a rung may panic, stall,
// return garbage, or lie, and the driver still returns *some* validated
// schedule plus a report of which rungs failed and why. The gate never
// trusts a rung's output: every candidate passes sim.Gate, the one legality
// gate the oracle and the schedule cache share, which re-attaches it to the
// pristine input graph and machine model and re-validates it from scratch
// (optionally including simulation against sequential reference
// semantics), so a scheduler that was fed corrupted preferences, a
// mutilated dependence graph, or a lying latency table cannot smuggle an
// illegal schedule out.
package robust

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// Stage identifies where in a scheduling attempt a failure happened.
type Stage string

const (
	// StageSchedule means the scheduler itself returned an error.
	StageSchedule Stage = "schedule"
	// StagePanic means the scheduler panicked and was recovered.
	StagePanic Stage = "panic"
	// StageDeadline means the attempt exceeded its time budget (the
	// abandoned attempt keeps its private graph clone, so it can finish
	// harmlessly in the background).
	StageDeadline Stage = "deadline"
	// StageValidate means the legality gate rejected the candidate
	// schedule against the pristine graph and machine.
	StageValidate Stage = "validate"
	// StageVerify means simulation of the candidate diverged from
	// sequential reference execution.
	StageVerify Stage = "verify"
	// StageBreaker means the rung was skipped without running because its
	// circuit breaker was open (see Options.Breakers). The rung paid no
	// time budget.
	StageBreaker Stage = "breaker"
)

// SchedError is the structured failure of one scheduling attempt.
type SchedError struct {
	// Rung names the ladder rung that failed.
	Rung string
	// Stage says where the attempt failed.
	Stage Stage
	// Err is the underlying error (nil for pure panics).
	Err error
	// PanicValue is the recovered panic value when Stage is StagePanic.
	PanicValue any
	// Stack is the goroutine stack captured at the panic site.
	Stack []byte
}

// Error renders the failure with its rung and stage.
func (e *SchedError) Error() string {
	switch {
	case e.Stage == StagePanic:
		return fmt.Sprintf("robust: rung %s panicked: %v", e.Rung, e.PanicValue)
	case e.Rung == "":
		return fmt.Sprintf("robust: failed at %s before any rung ran: %v", e.Stage, e.Err)
	default:
		return fmt.Sprintf("robust: rung %s failed at %s: %v", e.Rung, e.Stage, e.Err)
	}
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *SchedError) Unwrap() error { return e.Err }

// Rung is one level of the graceful-degradation ladder: a named scheduler.
// Run receives a private clone of the input graph, so a misbehaving rung —
// or a stalled one abandoned by the deadline — can never corrupt the graph
// another rung (or the legality gate) sees.
type Rung struct {
	// Name labels the rung in reports ("convergent", "uas", "list", ...).
	Name string
	// Run schedules the graph. It may return an error, panic, or stall;
	// the driver isolates all three. The context carries the request's
	// observability trace (see internal/obs) labelled with this rung's
	// name; schedulers that don't record simply ignore it.
	Run func(ctx context.Context, g *ir.Graph) (*schedule.Schedule, error)
}

// Options configures the resilient driver.
type Options struct {
	// Timeout bounds each rung attempt. Zero means no per-attempt budget
	// (the outer context still applies).
	Timeout time.Duration
	// Verify additionally simulates every candidate schedule against
	// sequential reference execution before accepting it. Validation
	// against the dependence graph and machine model always runs.
	Verify bool
	// InitMemory is the initial memory Verify simulates against; nil
	// means empty memory.
	InitMemory sim.Memory
	// Ladder is the rung sequence to walk. Nil means DefaultLadder with
	// Seed.
	Ladder []Rung
	// Seed seeds the convergent rungs of the default ladder.
	Seed int64
	// Breakers, when non-nil, guards every rung with a circuit breaker: a
	// rung whose breaker is open is skipped without paying its time budget
	// (the attempt is recorded with StageBreaker), and every attempted
	// rung's outcome feeds its breaker. Attempts abandoned because the
	// caller's context ended are not charged against the rung.
	Breakers *BreakerSet
	// BreakerScope partitions the breaker population — a served scheduler
	// uses the target machine's fingerprint so a rung failing on one
	// machine shape is not skipped on another. Empty means one breaker per
	// rung name.
	BreakerScope string
}

// Attempt records one rung's outcome.
type Attempt struct {
	// Rung is the rung name.
	Rung string
	// Duration is the wall-clock time the attempt took (for abandoned
	// attempts, the time until the deadline fired).
	Duration time.Duration
	// Err is nil when the rung's schedule passed the gate.
	Err *SchedError
}

// Report says which rungs ran, how each fared, and which one served.
type Report struct {
	// Attempts lists every rung tried, in ladder order.
	Attempts []Attempt
	// Served is the name of the rung whose schedule was accepted, or ""
	// when every rung failed.
	Served string
}

// Failed returns the errors of all failed attempts, in ladder order.
func (r *Report) Failed() []*SchedError {
	var out []*SchedError
	for _, a := range r.Attempts {
		if a.Err != nil {
			out = append(out, a.Err)
		}
	}
	return out
}

// Skipped reports whether any rung was bypassed by an open circuit breaker.
// A skipped report is load-dependent, not content-determined, so schedule
// caches (internal/engine) must not memoize its result.
func (r *Report) Skipped() bool {
	for _, a := range r.Attempts {
		if a.Err != nil && a.Err.Stage == StageBreaker {
			return true
		}
	}
	return false
}

// String renders the report one attempt per line.
func (r *Report) String() string {
	var b strings.Builder
	for _, a := range r.Attempts {
		status := "ok"
		if a.Err != nil {
			status = fmt.Sprintf("%s: %v", a.Err.Stage, compact(a.Err))
		}
		fmt.Fprintf(&b, "rung %-22s %10v  %s\n", a.Rung, a.Duration.Round(time.Microsecond), status)
	}
	if r.Served != "" {
		fmt.Fprintf(&b, "served by rung %s\n", r.Served)
	} else {
		b.WriteString("no rung served\n")
	}
	return b.String()
}

// compact flattens an attempt error to a single line for the report.
func compact(e *SchedError) string {
	var msg string
	switch {
	case e.Stage == StagePanic:
		msg = fmt.Sprint(e.PanicValue)
	case e.Err != nil:
		msg = e.Err.Error()
	}
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return msg
}

// recordAttempt mirrors one report attempt into the request trace (nil-safe:
// untraced requests record nothing).
func recordAttempt(tr *obs.Trace, rung string, d time.Duration, serr *SchedError) {
	if tr == nil {
		return
	}
	a := obs.AttemptRec{Rung: rung, Ms: float64(d) / float64(time.Millisecond), OK: serr == nil}
	if serr != nil {
		a.Stage = string(serr.Stage)
		a.Error = compact(serr)
	}
	tr.RecordAttempt(a)
}

// breakerWatch snapshots a breaker's state and returns a closure that
// records a BreakerEvent if the state changed by the time it runs. Untraced
// requests get a no-op, so the untraced path never queries the breaker.
func breakerWatch(tr *obs.Trace, bs *BreakerSet, key string) func() {
	if tr == nil || bs == nil {
		return func() {}
	}
	before := bs.State(key)
	return func() {
		if after := bs.State(key); after != before {
			tr.RecordBreaker(obs.BreakerEvent{Key: key, From: string(before), To: string(after)})
		}
	}
}

// outcome crosses the goroutine boundary of one isolated attempt.
type outcome struct {
	sched *schedule.Schedule
	err   error
	serr  *SchedError
}

// attempt runs one rung on a private clone of g with panic isolation and the
// configured deadline.
func attempt(ctx context.Context, r Rung, g *ir.Graph, timeout time.Duration) (*schedule.Schedule, *SchedError) {
	clone := g.Clone()
	runCtx := obs.WithRung(ctx, r.Name)
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				ch <- outcome{serr: &SchedError{Rung: r.Name, Stage: StagePanic, PanicValue: v, Stack: debug.Stack()}}
			}
		}()
		s, err := r.Run(runCtx, clone)
		ch <- outcome{sched: s, err: err}
	}()
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case out := <-ch:
		if out.serr != nil {
			return nil, out.serr
		}
		if out.err != nil {
			return nil, &SchedError{Rung: r.Name, Stage: StageSchedule, Err: out.err}
		}
		if out.sched == nil {
			return nil, &SchedError{Rung: r.Name, Stage: StageSchedule, Err: fmt.Errorf("scheduler returned no schedule and no error")}
		}
		return out.sched, nil
	case <-deadline:
		return nil, &SchedError{Rung: r.Name, Stage: StageDeadline, Err: fmt.Errorf("attempt exceeded %v budget", timeout)}
	case <-ctx.Done():
		return nil, &SchedError{Rung: r.Name, Stage: StageDeadline, Err: ctx.Err()}
	}
}

// try runs one isolated attempt of r and passes its candidate through the
// legality gate (sim.Gate), mapping the gate's illegal and wrong-answer
// classes onto StageValidate and StageVerify. The outcome is appended to the
// report (naming r as served on success) and mirrored into the trace;
// breaker bookkeeping is the caller's.
func try(ctx context.Context, r Rung, g *ir.Graph, m *machine.Model, opt Options, timeout time.Duration, rep *Report, tr *obs.Trace) (*schedule.Schedule, *SchedError) {
	t0 := time.Now()
	cand, serr := attempt(ctx, r, g, timeout)
	if serr == nil {
		var err error
		if cand, err = sim.Gate(cand, g, m, opt.Verify, opt.InitMemory); err != nil {
			stage := StageValidate
			if errors.Is(err, sim.ErrWrongAnswer) {
				stage = StageVerify
			}
			serr = &SchedError{Rung: r.Name, Stage: stage, Err: err}
		}
	}
	dur := time.Since(t0)
	rep.Attempts = append(rep.Attempts, Attempt{Rung: r.Name, Duration: dur, Err: serr})
	recordAttempt(tr, r.Name, dur, serr)
	if serr == nil {
		rep.Served = r.Name
	}
	return cand, serr
}

// Schedule walks the ladder until a rung produces a schedule that passes
// the legality gate, and returns that schedule with a report of every
// attempt. It never panics on a rung's behalf: rung panics, stalls, errors,
// and illegal or wrong-answer schedules all become recorded attempts, and
// the next rung runs. The returned schedule always references the original
// g and m and satisfies schedule.Validate (plus simulation against
// reference execution when opt.Verify is set). An error is returned only
// when every rung fails, alongside the full report.
func Schedule(ctx context.Context, g *ir.Graph, m *machine.Model, opt Options) (*schedule.Schedule, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ladder := opt.Ladder
	if ladder == nil {
		ladder = DefaultLadder(m, opt.Seed)
	}
	rep := &Report{}
	if len(ladder) == 0 {
		return nil, rep, fmt.Errorf("robust: empty ladder")
	}
	// A context that is already over gets a deadline SchedError without any
	// rung running: no clone, no goroutine, no budget. This is what lets a
	// server shed a queue of expired requests at memory speed.
	if err := ctx.Err(); err != nil {
		serr := &SchedError{Stage: StageDeadline, Err: err}
		return nil, rep, serr
	}
	g.Seal()
	tr := obs.FromContext(ctx)
	var last *SchedError
	for _, r := range ladder {
		if ctx.Err() != nil {
			break
		}
		key := breakerKey(r.Name, opt.BreakerScope)
		watch := breakerWatch(tr, opt.Breakers, key)
		if opt.Breakers != nil && !opt.Breakers.Allow(key) {
			watch()
			serr := &SchedError{Rung: r.Name, Stage: StageBreaker,
				Err: fmt.Errorf("circuit open for %q, rung skipped", key)}
			rep.Attempts = append(rep.Attempts, Attempt{Rung: r.Name, Err: serr})
			recordAttempt(tr, r.Name, 0, serr)
			last = serr
			continue
		}
		cand, serr := try(ctx, r, g, m, opt, opt.Timeout, rep, tr)
		if opt.Breakers != nil {
			switch {
			case serr == nil:
				opt.Breakers.Record(key, true)
			case ctx.Err() != nil:
				// The caller's deadline ended the attempt; that says
				// nothing about the rung, so hand back any probe slot
				// without charging a failure.
				opt.Breakers.Cancel(key)
			default:
				opt.Breakers.Record(key, false)
			}
		}
		watch()
		if serr == nil {
			return cand, rep, nil
		}
		last = serr
		if ctx.Err() != nil {
			break
		}
	}
	// A per-attempt budget tight enough to starve even the last resort
	// must not turn a degradation ladder into a denial: when the final
	// rung fell to the deadline, it gets one unbounded attempt (the
	// caller's context still bounds it). Single-rung ladders keep strict
	// budget semantics — there the caller asked to bound that scheduler,
	// not to be served at any cost.
	if len(ladder) > 1 && opt.Timeout > 0 && last != nil && last.Stage == StageDeadline && ctx.Err() == nil {
		r := ladder[len(ladder)-1]
		key := breakerKey(r.Name, opt.BreakerScope)
		watch := breakerWatch(tr, opt.Breakers, key)
		cand, serr := try(ctx, r, g, m, opt, 0, rep, tr)
		// The rescue attempt bypasses Allow — it is the serve-at-any-cost
		// path — but its outcome still teaches the breaker.
		if opt.Breakers != nil && (serr == nil || ctx.Err() == nil) {
			opt.Breakers.Record(key, serr == nil)
		}
		watch()
		if serr == nil {
			return cand, rep, nil
		}
		last = serr
	}
	return nil, rep, fmt.Errorf("robust: every rung failed for %q on %s: %w", g.Name, m.Name, last)
}

// Guard runs a bare scheduler call with panic isolation only: a panic
// becomes a *SchedError instead of taking down the process. It adds no
// goroutine, deadline, or validation, so timing measurements around it stay
// honest.
func Guard(name string, fn func() (*schedule.Schedule, error)) (s *schedule.Schedule, err error) {
	defer func() {
		if v := recover(); v != nil {
			s, err = nil, &SchedError{Rung: name, Stage: StagePanic, PanicValue: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}
