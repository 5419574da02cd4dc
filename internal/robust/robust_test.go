package robust_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/robust"
	"repro/internal/schedule"
	"repro/internal/sim"
)

func mustKernel(t *testing.T, name string) bench.Kernel {
	t.Helper()
	k, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("kernel %s not registered", name)
	}
	return k
}

// TestHealthyDefaultLadder: with nothing injected, the default ladder's
// first rung serves, the schedule is attached to the caller's graph and
// machine, and the simulated result passes the kernel's semantic check.
func TestHealthyDefaultLadder(t *testing.T) {
	k := mustKernel(t, "vvmul")
	m := machine.Chorus(4)
	g := k.Build(4)
	s, rep, err := robust.Schedule(context.Background(), g, m, robust.Options{
		Verify:     true,
		InitMemory: k.InitMemory(4),
		Seed:       2002,
	})
	if err != nil {
		t.Fatalf("healthy ladder failed: %v\n%s", err, rep)
	}
	if rep.Served != "convergent" {
		t.Errorf("served by %q, want the primary convergent rung\n%s", rep.Served, rep)
	}
	if len(rep.Attempts) != 1 {
		t.Errorf("%d attempts for a healthy ladder, want 1", len(rep.Attempts))
	}
	if s.Graph != g || s.Machine != m {
		t.Error("accepted schedule not attached to the pristine graph and machine")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("accepted schedule invalid: %v", err)
	}
	res, err := sim.Run(s, k.InitMemory(4))
	if err != nil {
		t.Fatalf("simulating accepted schedule: %v", err)
	}
	if err := k.Check(res.Memory, 4); err != nil {
		t.Errorf("accepted schedule computes the wrong answer: %v", err)
	}
}

func TestPanicIsolation(t *testing.T) {
	m := machine.Chorus(2)
	g := bench.RandomLayered(30, 4, 2, 1)
	ladder := []robust.Rung{
		{Name: "boom", Run: func(context.Context, *ir.Graph) (*schedule.Schedule, error) { panic("kaboom") }},
		robust.ListRung(m),
	}
	s, rep, err := robust.Schedule(context.Background(), g, m, robust.Options{Ladder: ladder})
	if err != nil {
		t.Fatalf("ladder with panicking primary failed outright: %v\n%s", err, rep)
	}
	if rep.Served != "list" {
		t.Errorf("served by %q, want list", rep.Served)
	}
	a := rep.Attempts[0]
	if a.Err == nil || a.Err.Stage != robust.StagePanic {
		t.Fatalf("first attempt error = %v, want stage panic", a.Err)
	}
	if a.Err.PanicValue != "kaboom" {
		t.Errorf("recovered panic value %v, want kaboom", a.Err.PanicValue)
	}
	if len(a.Err.Stack) == 0 {
		t.Error("no stack captured at panic site")
	}
	if !strings.Contains(a.Err.Error(), "boom") {
		t.Errorf("error %q does not name the failed rung", a.Err.Error())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("fallback schedule invalid: %v", err)
	}
}

func TestDeadlineAbandonsStalledRung(t *testing.T) {
	m := machine.Chorus(2)
	g := bench.RandomLayered(30, 4, 2, 1)
	ladder := []robust.Rung{
		{Name: "stuck", Run: func(ctx context.Context, gg *ir.Graph) (*schedule.Schedule, error) {
			time.Sleep(5 * time.Second)
			return nil, errors.New("unreachable")
		}},
		robust.ListRung(m),
	}
	t0 := time.Now()
	_, rep, err := robust.Schedule(context.Background(), g, m, robust.Options{
		Ladder:  ladder,
		Timeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("ladder with stalled primary failed outright: %v\n%s", err, rep)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Errorf("driver waited %v for a stalled rung with a 60ms budget", elapsed)
	}
	if rep.Served != "list" {
		t.Errorf("served by %q, want list", rep.Served)
	}
	if a := rep.Attempts[0]; a.Err == nil || a.Err.Stage != robust.StageDeadline {
		t.Fatalf("first attempt error = %v, want stage deadline", rep.Attempts[0].Err)
	}
}

func TestNilScheduleBecomesError(t *testing.T) {
	m := machine.Chorus(2)
	g := bench.RandomLayered(20, 4, 2, 1)
	ladder := []robust.Rung{
		{Name: "mute", Run: func(context.Context, *ir.Graph) (*schedule.Schedule, error) { return nil, nil }},
		robust.ListRung(m),
	}
	_, rep, err := robust.Schedule(context.Background(), g, m, robust.Options{Ladder: ladder})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if a := rep.Attempts[0]; a.Err == nil || a.Err.Stage != robust.StageSchedule {
		t.Fatalf("nil schedule from a rung reported as %v, want a schedule-stage error", rep.Attempts[0].Err)
	}
}

// TestGateRejectsCorruptedOutput: a rung that emits an illegal schedule is
// caught by the validation gate and the ladder degrades past it.
func TestGateRejectsCorruptedOutput(t *testing.T) {
	m := machine.Chorus(4)
	g := bench.RandomLayered(60, 6, 4, 3)
	ladder := []robust.Rung{
		{Name: "corrupt", Run: func(ctx context.Context, gg *ir.Graph) (*schedule.Schedule, error) {
			s, err := robust.ListRung(m).Run(context.Background(), gg)
			if err != nil {
				return nil, err
			}
			mut, _, ok := faultinject.MutateSchedule(s, faultinject.FUConflict, 3)
			if !ok {
				return nil, errors.New("mutation inapplicable")
			}
			return mut, nil
		}},
		robust.ListRung(m),
	}
	s, rep, err := robust.Schedule(context.Background(), g, m, robust.Options{Ladder: ladder})
	if err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	if a := rep.Attempts[0]; a.Err == nil || a.Err.Stage != robust.StageValidate {
		t.Fatalf("corrupted output reported as %v, want a validate-stage rejection", rep.Attempts[0].Err)
	}
	if rep.Served != "list" {
		t.Errorf("served by %q, want list", rep.Served)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("served schedule invalid: %v", err)
	}
}

// handSched builds a sequential single-cluster schedule issuing the given
// instructions at widely spaced cycles in the given order.
func handSched(g *ir.Graph, m *machine.Model, order []int) *schedule.Schedule {
	s := schedule.New(g, m)
	for pos, id := range order {
		in := g.Instrs[id]
		lat, _ := m.InstrLatency(in, 0)
		s.Placements[id] = schedule.Placement{
			Cluster: 0,
			FU:      m.FirstFU(in.Op),
			Start:   10 * (pos + 1),
			Latency: lat,
		}
	}
	return s
}

// TestVerifyCatchesWrongAnswer: a schedule can be structurally legal yet
// compute the wrong answer when the input graph under-constrains memory
// (two stores to one location with no ordering edge — a generator bug).
// With Verify set, simulation against reference execution catches it and
// the ladder degrades to a rung that happens to order the stores correctly.
func TestVerifyCatchesWrongAnswer(t *testing.T) {
	m := machine.SingleVLIW()
	g := ir.New("underconstrained")
	a0 := g.AddConst(0)
	c1 := g.AddConst(1)
	c2 := g.AddConst(2)
	s0 := g.AddStore(0, a0.ID, c1.ID)
	s1 := g.AddStore(0, a0.ID, c2.ID)
	good := []int{a0.ID, c1.ID, c2.ID, s0.ID, s1.ID}
	bad := []int{a0.ID, c1.ID, c2.ID, s1.ID, s0.ID}
	ladder := []robust.Rung{
		{Name: "reordered", Run: func(ctx context.Context, gg *ir.Graph) (*schedule.Schedule, error) {
			return handSched(gg, m, bad), nil
		}},
		{Name: "program-order", Run: func(ctx context.Context, gg *ir.Graph) (*schedule.Schedule, error) {
			return handSched(gg, m, good), nil
		}},
	}
	s, rep, err := robust.Schedule(context.Background(), g, m, robust.Options{
		Ladder: ladder,
		Verify: true,
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	if a := rep.Attempts[0]; a.Err == nil || a.Err.Stage != robust.StageVerify {
		t.Fatalf("wrong-answer schedule reported as %v, want a verify-stage rejection", rep.Attempts[0].Err)
	}
	if rep.Served != "program-order" {
		t.Errorf("served by %q, want program-order", rep.Served)
	}
	if _, err := sim.Verify(s, sim.NewMemory()); err != nil {
		t.Errorf("served schedule fails verification: %v", err)
	}
}

func TestAllRungsFail(t *testing.T) {
	m := machine.Chorus(2)
	g := bench.RandomLayered(20, 4, 2, 1)
	ladder := []robust.Rung{
		{Name: "deaf", Run: func(context.Context, *ir.Graph) (*schedule.Schedule, error) { return nil, errors.New("no") }},
		{Name: "dumb", Run: func(context.Context, *ir.Graph) (*schedule.Schedule, error) { panic("nope") }},
	}
	s, rep, err := robust.Schedule(context.Background(), g, m, robust.Options{Ladder: ladder})
	if err == nil || s != nil {
		t.Fatal("driver claimed success with every rung failing")
	}
	if rep.Served != "" {
		t.Errorf("report claims rung %q served", rep.Served)
	}
	if len(rep.Failed()) != 2 {
		t.Errorf("%d failures recorded, want 2", len(rep.Failed()))
	}
	var serr *robust.SchedError
	if !errors.As(err, &serr) {
		t.Fatalf("error %v does not unwrap to *SchedError", err)
	}
	if !strings.Contains(rep.String(), "no rung served") {
		t.Errorf("report does not state the total failure:\n%s", rep)
	}
}

// TestBudgetStarvedLadderEscalates: when the per-attempt budget is so
// tight that every rung — including the last resort — deadlines, the
// driver gives the final rung one unbounded attempt rather than deny the
// request. A single-rung ladder keeps strict budget semantics.
func TestBudgetStarvedLadderEscalates(t *testing.T) {
	m := machine.Chorus(2)
	g := bench.RandomLayered(30, 4, 2, 1)
	slowList := func(ctx context.Context, gg *ir.Graph) (*schedule.Schedule, error) {
		time.Sleep(40 * time.Millisecond)
		return robust.ListRung(m).Run(ctx, gg)
	}
	ladder := []robust.Rung{
		{Name: "slow-a", Run: slowList},
		{Name: "slow-b", Run: slowList},
	}
	s, rep, err := robust.Schedule(context.Background(), g, m, robust.Options{
		Ladder:  ladder,
		Timeout: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("starved ladder denied the request: %v\n%s", err, rep)
	}
	if rep.Served != "slow-b" {
		t.Errorf("served by %q, want the unbounded retry of the last rung\n%s", rep.Served, rep)
	}
	if len(rep.Attempts) != 3 {
		t.Errorf("%d attempts, want 2 deadlined + 1 unbounded retry\n%s", len(rep.Attempts), rep)
	}
	for i := 0; i < 2; i++ {
		if a := rep.Attempts[i]; a.Err == nil || a.Err.Stage != robust.StageDeadline {
			t.Errorf("attempt %d = %v, want deadline", i, a.Err)
		}
	}
	if err := s.Validate(); err != nil {
		t.Errorf("escalated schedule invalid: %v", err)
	}

	// Single rung: the budget stays a hard bound.
	_, rep, err = robust.Schedule(context.Background(), g, m, robust.Options{
		Ladder:  []robust.Rung{{Name: "only", Run: slowList}},
		Timeout: 5 * time.Millisecond,
	})
	if err == nil {
		t.Fatalf("single-rung ladder escaped its budget\n%s", rep)
	}
}

func TestEmptyLadderIsError(t *testing.T) {
	g := bench.RandomLayered(20, 4, 2, 1)
	_, _, err := robust.Schedule(context.Background(), g, machine.Chorus(2), robust.Options{Ladder: []robust.Rung{}})
	if err == nil {
		t.Fatal("empty ladder accepted")
	}
}

func TestCancelledContextStopsLadder(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := machine.Chorus(2)
	g := bench.RandomLayered(20, 4, 2, 1)
	slow := func(ctx context.Context, gg *ir.Graph) (*schedule.Schedule, error) {
		time.Sleep(50 * time.Millisecond)
		return robust.ListRung(m).Run(ctx, gg)
	}
	ladder := []robust.Rung{{Name: "one", Run: slow}, {Name: "two", Run: slow}}
	_, rep, err := robust.Schedule(ctx, g, m, robust.Options{Ladder: ladder})
	if err == nil {
		t.Fatal("cancelled context still produced a schedule")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	// Since the deadline-propagation hardening, an already-cancelled
	// context is rejected up front: no rung runs, not even once.
	if len(rep.Attempts) != 0 {
		t.Errorf("%d attempts after cancellation, want 0 (no rung may run)", len(rep.Attempts))
	}
}

func TestGuard(t *testing.T) {
	if _, err := robust.Guard("g", func() (*schedule.Schedule, error) { panic("pow") }); err == nil {
		t.Fatal("Guard swallowed a panic without reporting it")
	} else {
		var serr *robust.SchedError
		if !errors.As(err, &serr) || serr.Stage != robust.StagePanic {
			t.Errorf("Guard error %v, want a panic-stage *SchedError", err)
		}
	}
	want := &schedule.Schedule{}
	got, err := robust.Guard("g", func() (*schedule.Schedule, error) { return want, nil })
	if err != nil || got != want {
		t.Errorf("Guard altered a successful call: %v, %v", got, err)
	}
}

// TestSelectLadders pins the rungs robust.Select builds for every scheduler
// name, with and without fallback: a convergent scheduler degrades through
// its truncated sequence, the baseline and the list rung; any other
// scheduler straight to the list rung; no fallback means the named rung
// alone.
func TestSelectLadders(t *testing.T) {
	m := machine.Chorus(4)
	withFallback := map[string][]string{
		"convergent":       {"convergent", "convergent-truncated", "uas", "list"},
		"convergent-tuned": {"convergent-tuned", "convergent-tuned-truncated", "uas", "list"},
		"rawcc":            {"rawcc", "list"},
		"uas":              {"uas", "list"},
		"pcc":              {"pcc", "list"},
		"list":             {"list"},
	}
	for name, want := range withFallback {
		for _, fallback := range []bool{false, true} {
			ladder, _, err := robust.Select(m, name, fallback, 1)
			if err != nil {
				t.Errorf("Select(%s, fallback=%v): %v", name, fallback, err)
				continue
			}
			var got []string
			for _, r := range ladder {
				got = append(got, r.Name)
			}
			wantRungs := want
			if !fallback {
				wantRungs = want[:1]
			}
			if strings.Join(got, ">") != strings.Join(wantRungs, ">") {
				t.Errorf("Select(%s, fallback=%v) rungs %v, want %v", name, fallback, got, wantRungs)
			}
		}
	}
	for _, fallback := range []bool{false, true} {
		if _, _, err := robust.Select(m, "quantum", fallback, 1); err == nil {
			t.Errorf("unknown scheduler accepted with fallback=%v", fallback)
		}
	}
}
