package exp

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/robust"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// OracleRow reports one kernel × machine cell of the optimality-gap sweep:
// the oracle's certified lower bound, every scheduler column's makespan,
// and each column's gap over the bound. Gaps are provably non-negative —
// the bound is certified against every legal schedule — so a negative gap
// in the emitted artifact means the oracle or a scheduler's legality gate
// is broken, which is exactly what CI asserts on.
type OracleRow struct {
	Kernel  string `json:"kernel"`
	Machine string `json:"machine"`
	// Micro marks synthetic small graphs (searchable exactly) as opposed
	// to seed benchmark kernels (bounds-only).
	Micro bool `json:"micro"`
	Ops   int  `json:"ops"`
	// LowerBound is the oracle's certified lower bound; Bounds is its
	// static breakdown; Certified says the oracle proved a schedule of
	// exactly LowerBound cycles; Status and Nodes describe the search.
	LowerBound int           `json:"lowerBound"`
	Bounds     oracle.Bounds `json:"bounds"`
	Certified  bool          `json:"certified"`
	Status     string        `json:"status"`
	Nodes      int64         `json:"nodes"`
	// Ladder is the production path (default degradation ladder) and
	// Served the rung that answered. Default is the published convergent
	// sequence alone; Tuned the oracle-tuned sequence alone; Baseline
	// the machine's non-convergent baseline (rawcc or uas).
	Ladder       int    `json:"ladder"`
	Served       string `json:"served"`
	Default      int    `json:"default"`
	Tuned        int    `json:"tuned"`
	Baseline     int    `json:"baseline"`
	BaselineName string `json:"baselineName"`
	// Oracle is the best gated schedule the oracle holds after seeding
	// with every column above and searching; never longer than any of
	// them.
	Oracle int `json:"oracle"`
	// Gap columns: cycles over the certified lower bound.
	GapLadder int `json:"gapLadder"`
	GapTuned  int `json:"gapTuned"`
	GapOracle int `json:"gapOracle"`
}

// OracleTotals aggregates the sweep. SuiteDefault and SuiteTuned sum only
// the seed benchmark rows — the exact objective the tuned sequence was
// accepted on, so SuiteTuned <= SuiteDefault is a structural guarantee the
// CI gate pins.
type OracleTotals struct {
	Kernels       int `json:"kernels"`
	ProvenOptimal int `json:"provenOptimal"`
	LowerBound    int `json:"lowerBound"`
	Ladder        int `json:"ladder"`
	Oracle        int `json:"oracle"`
	SuiteDefault  int `json:"suiteDefault"`
	SuiteTuned    int `json:"suiteTuned"`
}

// OracleSummary is the BENCH_oracle.json payload.
type OracleSummary struct {
	Seed         int64        `json:"seed"`
	NodeBudget   int64        `json:"nodeBudget"`
	MaxSearchOps int          `json:"maxSearchOps"`
	Rows         []OracleRow  `json:"rows"`
	Totals       OracleTotals `json:"totals"`
}

// microKernel is a synthetic graph small enough for exact search; the
// shapes cover the classic stress cases (serial chain, reconvergent
// diamond, wide fanout, random layered code).
type microKernel struct {
	name  string
	build func(clusters int) *ir.Graph
}

func chainGraph(n int) *ir.Graph {
	g := ir.New(fmt.Sprintf("chain%d", n))
	prev := g.AddConst(1).ID
	for i := 0; i < n; i++ {
		prev = g.Add(ir.Add, prev, prev).ID
	}
	return g
}

func diamondGraph() *ir.Graph {
	g := ir.New("diamond")
	c := g.AddConst(7).ID
	a := g.Add(ir.Add, c, c).ID
	b := g.Add(ir.Sub, c, c).ID
	g.Add(ir.Mul, a, b)
	return g
}

func fanoutGraph(w int) *ir.Graph {
	g := ir.New(fmt.Sprintf("fanout%d", w))
	c := g.AddConst(3).ID
	var level []int
	for i := 0; i < w; i++ {
		level = append(level, g.Add(ir.Add, c, c).ID)
	}
	for len(level) > 1 {
		var next []int
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, g.Add(ir.Add, level[i], level[i+1]).ID)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return g
}

func microKernels() []microKernel {
	return []microKernel{
		{"micro-chain16", func(int) *ir.Graph { return chainGraph(16) }},
		{"micro-diamond", func(int) *ir.Graph { return diamondGraph() }},
		{"micro-fanout6", func(int) *ir.Graph { return fanoutGraph(6) }},
		{"micro-fanout12", func(int) *ir.Graph { return fanoutGraph(12) }},
		{"micro-layered24", func(c int) *ir.Graph { return bench.RandomLayered(24, 6, c, Seed) }},
	}
}

// Oracle runs the optimality-gap sweep: every seed kernel and every micro
// kernel on raw4 and vliw4, each scheduled by the production ladder, the
// published convergent sequence, the oracle-tuned sequence, and the
// machine baseline, then handed to the oracle (seeded with the best of
// them) for a certified lower bound or an optimality proof. Zero budget
// arguments mean the oracle defaults.
func Oracle(nodeBudget int64, maxOps int) (*OracleSummary, error) {
	sum := &OracleSummary{
		Seed:         Seed,
		NodeBudget:   nodeBudget,
		MaxSearchOps: maxOps,
	}
	if sum.NodeBudget <= 0 {
		sum.NodeBudget = oracle.DefaultNodeBudget
	}
	if sum.MaxSearchOps <= 0 {
		sum.MaxSearchOps = oracle.DefaultMaxSearchOps
	}

	type target struct {
		m     *machine.Model
		suite []bench.Kernel
	}
	for _, t := range []target{
		{machine.Raw(4), bench.RawSuite()},
		{machine.Chorus(4), bench.VliwSuite()},
	} {
		for _, k := range t.suite {
			mem := k.InitMemory(t.m.NumClusters)
			row, err := oracleRow(k.Name, false, k.Build, t.m, mem, sum.NodeBudget, sum.MaxSearchOps)
			if err != nil {
				return nil, err
			}
			sum.Rows = append(sum.Rows, *row)
		}
		for _, mk := range microKernels() {
			row, err := oracleRow(mk.name, true, mk.build, t.m, nil, sum.NodeBudget, sum.MaxSearchOps)
			if err != nil {
				return nil, err
			}
			sum.Rows = append(sum.Rows, *row)
		}
	}

	for _, r := range sum.Rows {
		sum.Totals.Kernels++
		if r.Certified {
			sum.Totals.ProvenOptimal++
		}
		sum.Totals.LowerBound += r.LowerBound
		sum.Totals.Ladder += r.Ladder
		sum.Totals.Oracle += r.Oracle
		if !r.Micro {
			sum.Totals.SuiteDefault += r.Default
			sum.Totals.SuiteTuned += r.Tuned
		}
	}
	return sum, nil
}

// oracleRow schedules one kernel four ways and runs the oracle over the
// best of them.
func oracleRow(name string, micro bool, build func(int) *ir.Graph, m *machine.Model, mem sim.Memory, nodeBudget int64, maxOps int) (*OracleRow, error) {
	g := build(m.NumClusters)
	row := &OracleRow{Kernel: name, Machine: m.Name, Micro: micro, Ops: g.Len()}

	ladder, rep, err := robust.Schedule(context.Background(), g, m, robust.Options{
		Seed: Seed, Verify: true, InitMemory: mem,
	})
	if err != nil {
		return nil, fmt.Errorf("exp: oracle ladder %s on %s: %w", name, m.Name, err)
	}
	row.Ladder, row.Served = ladder.Length(), rep.Served

	defSched, err := selected(g, m, "convergent", mem)
	if err != nil {
		return nil, fmt.Errorf("exp: oracle default sequence %s on %s: %w", name, m.Name, err)
	}
	row.Default = defSched.Length()

	tuned, err := selected(g, m, "convergent-tuned", mem)
	if err != nil {
		return nil, fmt.Errorf("exp: oracle tuned sequence %s on %s: %w", name, m.Name, err)
	}
	row.Tuned = tuned.Length()

	baseline := robust.BaselineRung(m)
	row.BaselineName = baseline.Name
	base, err := robust.Guard(baseline.Name, func() (*schedule.Schedule, error) { return baseline.Run(context.Background(), g) })
	if err != nil {
		return nil, fmt.Errorf("exp: oracle %s %s on %s: %w", row.BaselineName, name, m.Name, err)
	}
	row.Baseline = base.Length()

	incumbent := ladder
	for _, s := range []*schedule.Schedule{defSched, tuned, base} {
		if s.Length() < incumbent.Length() {
			incumbent = s
		}
	}
	res, err := oracle.Solve(context.Background(), g, m, oracle.Options{
		NodeBudget:   nodeBudget,
		MaxSearchOps: maxOps,
		Incumbent:    incumbent,
		Verify:       true,
		InitMemory:   mem,
	})
	if err != nil {
		return nil, fmt.Errorf("exp: oracle solve %s on %s: %w", name, m.Name, err)
	}
	row.LowerBound = res.LowerBound
	row.Bounds = res.Bounds
	row.Certified = res.Certified
	row.Status = res.Status
	row.Nodes = res.Nodes
	row.Oracle = res.BestLength
	row.GapLadder = row.Ladder - row.LowerBound
	row.GapTuned = row.Tuned - row.LowerBound
	row.GapOracle = row.Oracle - row.LowerBound
	return row, nil
}

// selected schedules with the named scheduler alone — no fallback, so a
// sequence that cannot schedule the kernel is an error, exactly as in the
// tuning cost function.
func selected(g *ir.Graph, m *machine.Model, scheduler string, mem sim.Memory) (*schedule.Schedule, error) {
	ladder, _, err := robust.Select(m, scheduler, false, Seed)
	if err != nil {
		return nil, err
	}
	s, _, err := robust.Schedule(context.Background(), g, m, robust.Options{
		Seed:       Seed,
		Verify:     true,
		InitMemory: mem,
		Ladder:     ladder,
	})
	return s, err
}
