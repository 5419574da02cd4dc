// Package obs is the observability layer: per-request scheduling traces and
// a dependency-free Prometheus-text-format metrics registry.
//
// The paper's central artifact — how each convergent pass nudges the
// preference map W[instr][time][cluster] toward the final placement — is
// invisible at runtime without it, and the service layers built on top
// (degradation ladder, schedule cache, persistent store, admission control)
// can otherwise only be observed through logs. A Trace rides the request
// context through every layer: the convergent driver records per-pass
// preference-map deltas (top-k weight shifts, per-instruction entropy), the
// resilient driver records per-rung attempt outcomes and breaker
// transitions, and the engine records which cache path served the request.
//
// Observation is contractually inert: recording only ever reads scheduler
// state, so a traced run produces a byte-identical schedule to an untraced
// one (internal/engine's differential property tests pin this). Every
// record method is safe on a nil *Trace and safe for concurrent use, which
// is what lets call sites write obs.FromContext(ctx).RecordAttempt(...)
// unconditionally.
package obs

import (
	"context"
	"encoding/json"
	"sync"
)

// TopShiftK bounds how many per-instruction weight shifts a pass delta
// records: the K instructions whose cluster marginals moved the most.
const TopShiftK = 8

// WeightShift is one instruction's spatial movement under a pass: where its
// preferred cluster went and how much marginal mass moved (L1 distance
// between the before/after cluster-marginal vectors, max 2).
type WeightShift struct {
	// Instr is the instruction id in the scheduled graph's numbering.
	Instr int `json:"instr"`
	// From and To are the preferred clusters before and after the pass.
	From int `json:"from"`
	To   int `json:"to"`
	// L1 is Σ_c |after[c] - before[c]| over normalized cluster marginals.
	L1 float64 `json:"l1"`
}

// PassDelta is what one convergent pass did to the preference map.
type PassDelta struct {
	// Rung names the ladder rung whose sequence ran the pass ("convergent",
	// "convergent-truncated", ...).
	Rung string `json:"rung"`
	// Pass is the pass's table label ("PATH", "COMM", ...).
	Pass string `json:"pass"`
	// Changed counts instructions whose preferred cluster differs after the
	// pass; Fraction is Changed over the instruction count.
	Changed  int     `json:"changed"`
	Fraction float64 `json:"fraction"`
	// TopShifts are the TopShiftK largest per-instruction marginal moves,
	// largest first.
	TopShifts []WeightShift `json:"topShifts,omitempty"`
	// MeanEntropy is the mean over instructions of the Shannon entropy
	// (nats) of each normalized cluster marginal after the pass: 0 means
	// fully decided, ln(C) means uniform. The per-pass convergence signal.
	MeanEntropy float64 `json:"meanEntropy"`
	// MinTotal and MaxTotal bound the per-instruction weight totals after
	// the driver's normalization — the paper's Σ W[i] = 1 invariant, which
	// the inertness property tests assert within epsilon.
	MinTotal float64 `json:"minTotal"`
	MaxTotal float64 `json:"maxTotal"`
}

// AttemptRec is one ladder rung's outcome as seen by the resilient driver.
type AttemptRec struct {
	// Rung names the rung.
	Rung string `json:"rung"`
	// Ms is the attempt's wall-clock latency in milliseconds.
	Ms float64 `json:"ms"`
	// OK says the rung's schedule passed the legality gate and served.
	OK bool `json:"ok"`
	// Stage and Error carry the failure site for failed attempts.
	Stage string `json:"stage,omitempty"`
	Error string `json:"error,omitempty"`
}

// BreakerEvent is one circuit-breaker state transition observed while the
// traced request walked the ladder.
type BreakerEvent struct {
	// Key is the breaker key (rung name, plus "@scope" when scoped).
	Key string `json:"key"`
	// From and To are the states around the transition.
	From string `json:"from"`
	To   string `json:"to"`
}

// Cache lookup paths recorded by the engine. "persisted-hit" is a hit whose
// entry was loaded from the crash-safe store at recovery (a warm restart
// serving), as opposed to a hit computed by this process.
const (
	CacheHit          = "hit"
	CachePersistedHit = "persisted-hit"
	CacheMiss         = "miss"
	CacheShared       = "shared"
	CacheCollision    = "collision"
	CacheUncacheable  = "uncacheable"
	CacheDetached     = "detached"
	CacheDisabled     = "disabled"
)

// Trace is one scheduling request's observability record. It is filled in
// by the layers a request passes through and serialized to JSON for
// convsched -trace and schedd's ?trace=1 response section. All methods are
// nil-safe and concurrency-safe; a nil *Trace records nothing, which is the
// untraced fast path.
type Trace struct {
	mu sync.Mutex

	// Graph and Machine label the request.
	Graph   string `json:"graph,omitempty"`
	Machine string `json:"machine,omitempty"`
	// Tenant and Class attribute the request to its QoS identity when it
	// came through schedd's multi-tenant admission layer.
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class,omitempty"`
	// Passes are the per-pass preference-map deltas, in execution order
	// (across rungs: a degraded request records the failed rung's passes
	// before the serving rung's).
	Passes []PassDelta `json:"passes,omitempty"`
	// Attempts are the ladder attempts, in ladder order.
	Attempts []AttemptRec `json:"attempts,omitempty"`
	// CachePath says how the engine answered: one of the Cache* constants.
	CachePath string `json:"cachePath,omitempty"`
	// Persisted says this request's schedule was enqueued to the crash-safe
	// store's write-behind flusher.
	Persisted bool `json:"persisted,omitempty"`
	// Breakers are the circuit-breaker transitions this request observed.
	Breakers []BreakerEvent `json:"breakers,omitempty"`
}

// NewTrace returns an empty trace labelled with the request's graph and
// machine names.
func NewTrace(graph, machine string) *Trace {
	return &Trace{Graph: graph, Machine: machine}
}

// SetTenant labels the trace with the request's QoS identity.
func (t *Trace) SetTenant(tenant, class string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Tenant, t.Class = tenant, class
	t.mu.Unlock()
}

// RecordPass appends one pass delta.
func (t *Trace) RecordPass(d PassDelta) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Passes = append(t.Passes, d)
	t.mu.Unlock()
}

// RecordAttempt appends one ladder attempt.
func (t *Trace) RecordAttempt(a AttemptRec) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Attempts = append(t.Attempts, a)
	t.mu.Unlock()
}

// SetCachePath records how the engine answered the request.
func (t *Trace) SetCachePath(p string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.CachePath = p
	t.mu.Unlock()
}

// SetPersisted marks the request's schedule as handed to the store flusher.
func (t *Trace) SetPersisted() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Persisted = true
	t.mu.Unlock()
}

// RecordBreaker appends one breaker transition.
func (t *Trace) RecordBreaker(e BreakerEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Breakers = append(t.Breakers, e)
	t.mu.Unlock()
}

// Snapshot returns a deep copy safe to serialize while recording continues.
func (t *Trace) Snapshot() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &Trace{
		Graph:     t.Graph,
		Machine:   t.Machine,
		Tenant:    t.Tenant,
		Class:     t.Class,
		CachePath: t.CachePath,
		Persisted: t.Persisted,
	}
	out.Passes = append([]PassDelta(nil), t.Passes...)
	out.Attempts = append([]AttemptRec(nil), t.Attempts...)
	out.Breakers = append([]BreakerEvent(nil), t.Breakers...)
	return out
}

// MarshalJSON serializes a consistent snapshot under the trace's lock, so a
// trace can be encoded while an abandoned rung attempt is still writing.
func (t *Trace) MarshalJSON() ([]byte, error) {
	snap := t.Snapshot()
	// An alias type drops the custom marshaller to avoid recursion.
	type plain Trace
	return json.Marshal((*plain)(snap))
}

// traceKey is the context key for the request trace; rungKey labels which
// ladder rung the traced code is running under.
type traceKey struct{}
type rungKey struct{}

// WithTrace returns a context carrying t; scheduling layers below will
// record into it. A nil t is allowed and means "untraced".
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the context's trace, or nil when untraced. The nil
// result is usable: every Trace method no-ops on nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// WithRung labels ctx with the ladder rung about to run, so pass deltas
// recorded below know which rung's sequence produced them.
func WithRung(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, rungKey{}, name)
}

// RungFromContext returns the rung label, or "" outside a ladder attempt.
func RungFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	name, _ := ctx.Value(rungKey{}).(string)
	return name
}
