package tune

import (
	"context"
	"fmt"

	"repro/internal/oracle"
)

// KernelBound records the oracle's verdict for one suite kernel: a
// certified lower bound on its optimal makespan, and whether the bound is
// tight (a schedule of exactly that length exists and was verified).
type KernelBound struct {
	Kernel     string `json:"kernel"`
	LowerBound int    `json:"lowerBound"`
	Certified  bool   `json:"certified"`
	Status     string `json:"status"`
}

// GapResult is an oracle-guided search outcome: the hill-climb result
// rescored as optimality gaps against the suite's certified lower bound.
type GapResult struct {
	Result
	// Bounds holds the per-kernel oracle verdicts the gaps are measured
	// against.
	Bounds []KernelBound `json:"bounds"`
	// SuiteLowerBound is the summed certified lower bound: no pass
	// sequence can score below it.
	SuiteLowerBound int `json:"suiteLowerBound"`
	// StartGap and BestGap are StartCost and BestCost minus the suite
	// lower bound — how many provably-wasted cycles the seed and the
	// winner carry.
	StartGap int `json:"startGap"`
	BestGap  int `json:"bestGap"`
}

// SearchGaps runs the oracle-guided tuning mode: it first obtains a
// certified lower bound for every suite kernel from the optimality oracle,
// then hill-climbs pass sequences exactly as Search does with the suite
// bound as an early-stop target, and reports costs as optimality gaps.
// Minimizing total cost and minimizing total gap are the same search — the
// bound is a constant — but the gap makes the result meaningful: it says
// how far from proven-optimal the sequence sits, not just that it beat
// another heuristic.
func SearchGaps(opt Options, oracleOpt oracle.Options) (*GapResult, error) {
	if err := opt.withDefaults(); err != nil {
		return nil, err
	}
	gr := &GapResult{}
	for _, k := range opt.Kernels {
		g := k.Build(opt.Machine.NumClusters)
		res, err := oracle.Solve(context.Background(), g, opt.Machine, oracleOpt)
		if err != nil {
			return nil, fmt.Errorf("tune: oracle bound for %s: %w", k.Name, err)
		}
		gr.Bounds = append(gr.Bounds, KernelBound{
			Kernel:     k.Name,
			LowerBound: res.LowerBound,
			Certified:  res.Certified,
			Status:     res.Status,
		})
		gr.SuiteLowerBound += res.LowerBound
	}
	opt.Target = gr.SuiteLowerBound
	res, err := Search(opt)
	if err != nil {
		return nil, err
	}
	gr.Result = *res
	gr.StartGap = res.StartCost - gr.SuiteLowerBound
	gr.BestGap = res.BestCost - gr.SuiteLowerBound
	return gr, nil
}
