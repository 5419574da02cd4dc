package tune

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
)

func suite(t *testing.T, names ...string) []bench.Kernel {
	t.Helper()
	var out []bench.Kernel
	for _, n := range names {
		k, ok := bench.ByName(n)
		if !ok {
			t.Fatalf("kernel %s", n)
		}
		out = append(out, k)
	}
	return out
}

// serialCost is the summed schedule length of the suite under a sequence,
// scheduled one kernel at a time by core.Schedule: the reference CostWith
// is compared against.
func serialCost(t *testing.T, m *machine.Model, kernels []bench.Kernel, labels []string, seed int64) int {
	t.Helper()
	seq, err := sequenceFor(labels)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, k := range kernels {
		s, _, err := core.Schedule(k.Build(m.NumClusters), m, seq, seed)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		total += s.Length()
	}
	return total
}

func TestCostMatchesSingleRun(t *testing.T) {
	m := machine.Chorus(4)
	ks := suite(t, "vvmul")
	e := engine.New(1, 0)
	c1, err := CostWith(e, m, ks, []string{"INITTIME", "NOISE", "PLACE", "EMPHCP"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= 0 {
		t.Errorf("cost = %d", c1)
	}
	// Deterministic for the same seed.
	c2, err := CostWith(e, m, ks, []string{"INITTIME", "NOISE", "PLACE", "EMPHCP"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("cost not deterministic: %d vs %d", c1, c2)
	}
}

func TestCostRejectsUnknownPass(t *testing.T) {
	m := machine.Chorus(4)
	if _, err := CostWith(engine.New(1, 0), m, suite(t, "vvmul"), []string{"WARP"}, 1); err == nil {
		t.Error("unknown pass accepted")
	}
}

func TestSearchNeverWorsens(t *testing.T) {
	m := machine.Chorus(4)
	res, err := Search(Options{
		Machine: m,
		Kernels: suite(t, "vvmul", "yuv"),
		Iters:   12,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost > res.StartCost {
		t.Errorf("search worsened: %d -> %d", res.StartCost, res.BestCost)
	}
	if res.Evaluations != 13 { // seed + 12 proposals
		t.Errorf("evaluations = %d", res.Evaluations)
	}
	// Improvements must be strictly decreasing.
	prev := res.StartCost
	for _, st := range res.Improvements {
		if st.Cost >= prev {
			t.Errorf("non-improving step recorded: %+v", st)
		}
		prev = st.Cost
	}
	// Best must reproduce its cost.
	if c := serialCost(t, m, suite(t, "vvmul", "yuv"), res.Best, 3); c != res.BestCost {
		t.Errorf("best cost not reproducible: %d vs %d", c, res.BestCost)
	}
}

func TestSearchDefaultsToPublishedSequence(t *testing.T) {
	m := machine.Raw(2)
	res, err := Search(Options{
		Machine: m,
		Kernels: suite(t, "vvmul"),
		Iters:   1,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Start, " ")
	if !strings.Contains(joined, "PLACEPROP") || !strings.Contains(joined, "LEVEL") {
		t.Errorf("seed sequence = %v, want the Raw sequence", res.Start)
	}
}

func TestSearchValidatesOptions(t *testing.T) {
	if _, err := Search(Options{}); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := Search(Options{Machine: machine.Raw(2)}); err == nil {
		t.Error("no kernels accepted")
	}
}

func TestSearchLogsImprovements(t *testing.T) {
	m := machine.Chorus(4)
	var lines []string
	res, err := Search(Options{
		Machine: m,
		Kernels: suite(t, "vvmul"),
		Iters:   20,
		Seed:    5,
		Log:     func(s string) { lines = append(lines, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(res.Improvements) {
		t.Errorf("logged %d lines for %d improvements", len(lines), len(res.Improvements))
	}
}

func TestCostWithMatchesCost(t *testing.T) {
	m := machine.Chorus(4)
	ks := suite(t, "vvmul", "fir")
	labels := []string{"INITTIME", "NOISE", "PLACE", "EMPHCP"}
	want := serialCost(t, m, ks, labels, 7)
	e := engine.New(2, 32)
	got, err := CostWith(e, m, ks, labels, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("engine cost %d != serial cost %d", got, want)
	}
	// Re-evaluating the same sequence must come from the cache, unchanged.
	again, err := CostWith(e, m, ks, labels, 7)
	if err != nil {
		t.Fatal(err)
	}
	if again != want {
		t.Errorf("cached cost %d != serial cost %d", again, want)
	}
	if st := e.Stats(); st.Hits != uint64(len(ks)) {
		t.Errorf("stats after re-evaluation: %+v, want %d hits", st, len(ks))
	}
	if _, err := CostWith(e, m, ks, []string{"WARP"}, 1); err == nil {
		t.Error("unknown pass accepted")
	}
}

func TestSearchWithEngineMatchesSerial(t *testing.T) {
	m := machine.Chorus(4)
	base := Options{
		Machine: m,
		Kernels: suite(t, "vvmul", "yuv"),
		Iters:   10,
		Seed:    3,
	}
	serial, err := Search(base)
	if err != nil {
		t.Fatal(err)
	}
	withEngine := base
	withEngine.Engine = engine.New(2, 256)
	cached, err := Search(withEngine)
	if err != nil {
		t.Fatal(err)
	}
	if serial.BestCost != cached.BestCost || serial.StartCost != cached.StartCost {
		t.Errorf("engine search diverged: serial best %d start %d, engine best %d start %d",
			serial.BestCost, serial.StartCost, cached.BestCost, cached.StartCost)
	}
	if strings.Join(serial.Best, ",") != strings.Join(cached.Best, ",") {
		t.Errorf("best sequences diverged:\nserial: %v\nengine: %v", serial.Best, cached.Best)
	}
}
