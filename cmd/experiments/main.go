// Command experiments regenerates every table and figure of the paper's
// evaluation section on this repository's substrate.
//
// Usage:
//
//	experiments                 # everything
//	experiments -exp table2     # one experiment
//	experiments -exp fig10 -sizes 100,250,500,1000,2000
//
// Experiments: table1, table2, fig4, fig6, fig7, fig8, fig9, fig10, theta,
// ablation (pass-sequence variants of the design choices DESIGN.md calls
// out, against each machine's reference sequence), resilience (the chaos
// sweep: which ladder rung serves under each injected fault class), obs
// (traced scheduling of the whole suite, reduced to entropy/settling/latency
// rows — the BENCH_obs.json artifact: experiments -exp obs -obs-out
// BENCH_obs.json), and oracle (per-kernel optimality gaps of the
// ladder/tuned/baseline schedulers against the exact branch-and-bound
// oracle's certified lower bounds — the BENCH_oracle.json artifact:
// experiments -exp oracle -oracle-out BENCH_oracle.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/passes"
)

func main() {
	which := flag.String("exp", "all", "experiment to run: all|table1|table2|fig4|fig6|fig7|fig8|fig9|fig10|theta|ablation|resilience|obs|oracle")
	sizes := flag.String("sizes", "100,250,500,1000,2000", "instruction counts for fig10")
	kernels := flag.String("kernels", "vvmul,mxm", "kernels for the resilience sweep")
	timeout := flag.Duration("timeout", 2*time.Second, "per-attempt budget for the resilience sweep")
	jobs := flag.Int("j", 0, "worker-pool width for the batch-scheduled convergent columns (0 = GOMAXPROCS)")
	obsOut := flag.String("obs-out", "", "write the obs experiment's JSON here instead of stdout")
	oracleOut := flag.String("oracle-out", "", "write the oracle experiment's JSON here instead of stdout")
	oracleBudget := flag.Int64("oracle-budget", 0, "oracle node budget per kernel (0 = default)")
	flag.Parse()
	exp.Workers = *jobs

	if err := run(*which, *sizes, *kernels, *obsOut, *oracleOut, *oracleBudget, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(which, sizesArg, kernelsArg, obsOut, oracleOut string, oracleBudget int64, timeout time.Duration) error {
	want := func(name string) bool { return which == "all" || which == name }
	any := false

	if want("table1") {
		any = true
		fmt.Println(exp.RenderTable1())
	}
	if want("table2") || want("fig6") {
		any = true
		rows, err := exp.Table2()
		if err != nil {
			return err
		}
		if want("table2") {
			fmt.Println(exp.RenderTable2(rows))
		}
		if want("fig6") {
			fmt.Println(exp.RenderFig6(rows))
		}
	}
	if want("fig4") {
		any = true
		fmt.Println(exp.RenderFig4())
	}
	if want("fig7") {
		any = true
		rows := exp.Convergence(machine.Raw(16), bench.RawSuite(), passes.RawSequence())
		fmt.Println(exp.RenderConvergence("Figure 7: convergence of spatial assignments on Raw (16 tiles)", rows))
	}
	if want("fig8") {
		any = true
		rows, err := exp.Fig8()
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderFig8(rows))
	}
	if want("fig9") {
		any = true
		rows := exp.Convergence(machine.Chorus(4), bench.VliwSuite(), passes.VliwSequence())
		fmt.Println(exp.RenderConvergence("Figure 9: convergence of spatial assignments on Chorus (4 clusters)", rows))
	}
	if want("theta") {
		any = true
		rows, err := exp.PCCThetaSweep([]int{4, 8, 16, 32, 64, 128})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderThetaSweep(rows))
	}
	if want("ablation") {
		any = true
		rows, err := exp.Ablations()
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderAblations(rows))
	}
	if want("resilience") {
		any = true
		rows, err := exp.Resilience(
			[]*machine.Model{machine.Raw(16), machine.Chorus(4)},
			strings.Split(kernelsArg, ","),
			timeout,
		)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderResilience(rows))
	}
	if want("fig10") {
		any = true
		var ns []int
		for _, f := range strings.Split(sizesArg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 2 {
				return fmt.Errorf("bad -sizes entry %q", f)
			}
			ns = append(ns, n)
		}
		rows, err := exp.Fig10(ns)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderFig10(rows))
	}
	if want("obs") {
		any = true
		sum, err := exp.Obs()
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if obsOut != "" {
			if err := os.WriteFile(obsOut, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("obs: wrote %d rows to %s\n", len(sum.Rows), obsOut)
		} else {
			os.Stdout.Write(data)
		}
	}
	if want("oracle") {
		any = true
		sum, err := exp.Oracle(oracleBudget, 0)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if oracleOut != "" {
			if err := os.WriteFile(oracleOut, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("oracle: wrote %d rows to %s (%d proven optimal, ladder gap %d cycles, tuned suite %d vs default %d)\n",
				len(sum.Rows), oracleOut, sum.Totals.ProvenOptimal,
				sum.Totals.Ladder-sum.Totals.LowerBound,
				sum.Totals.SuiteTuned, sum.Totals.SuiteDefault)
		} else {
			os.Stdout.Write(data)
		}
	}
	if !any {
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}
