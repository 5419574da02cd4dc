package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/passes"
	"repro/internal/textplot"
)

// RenderTable1 prints the pass sequences (the paper's Table 1) plus this
// repository's working VLIW sequence.
func RenderTable1() string {
	var b strings.Builder
	b.WriteString("Table 1: convergent pass sequences\n\n")
	col := func(label string, seq []core.Pass) {
		fmt.Fprintf(&b, "%s:\n", label)
		for _, p := range seq {
			fmt.Fprintf(&b, "  %s\n", p.Name())
		}
		b.WriteByte('\n')
	}
	col("(a) Raw", passes.RawSequence())
	col("(b) clustered VLIW (published, Table 1b)", passes.PublishedVliwSequence())
	col("(b') clustered VLIW (as used here: Table 1b + FULOAD)", passes.VliwSequence())
	return b.String()
}

// RenderTable2 prints Table 2 with the measured speedups. Convergent cells
// produced by a fallback rung (not the primary convergent pipeline) are
// marked with '*' and disclosed below the table.
func RenderTable2(rows []Table2Row) string {
	header := []string{"Benchmark/Tiles", "2", "4", "8", "16", "| 2", "4", "8", "16"}
	var trows [][]string
	var degraded []string
	for _, r := range rows {
		cells := []string{r.Benchmark}
		for _, v := range r.Base {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		for ti, v := range r.Convergent {
			cell := fmt.Sprintf("%.2f", v)
			if s := r.Served[ti]; s != "" && s != "convergent" {
				cell += "*"
				degraded = append(degraded, fmt.Sprintf("%s/%d tiles served by %s", r.Benchmark, Tiles[ti], s))
			}
			cells = append(cells, cell)
		}
		trows = append(trows, cells)
	}
	var b strings.Builder
	b.WriteString("Table 2: Rawcc speedup (left: base, right: convergent), relative to one tile\n\n")
	b.WriteString(textplot.Table(header, trows))
	fmt.Fprintf(&b, "\ngeometric-mean improvement of convergent over base at 16 tiles: %+.1f%%\n",
		100*GeoMeanImprovement(rows, 3))
	for _, d := range degraded {
		fmt.Fprintf(&b, "* %s (convergent pipeline degraded)\n", d)
	}
	return b.String()
}

// RenderFig6 prints Figure 6: the 16-tile column of Table 2 as bars.
func RenderFig6(rows []Table2Row) string {
	var labels []string
	var values [][]float64
	for _, r := range rows {
		labels = append(labels, r.Benchmark)
		values = append(values, []float64{r.Base[3], r.Convergent[3]})
	}
	return "Figure 6: Rawcc vs convergent on a 16-tile Raw machine (speedup vs 1 tile)\n\n" +
		textplot.Bars(labels, []string{"Rawcc", "Convergent"}, values, 50)
}

// RenderConvergence prints Figures 7/9: per-pass fraction of instructions
// whose preferred cluster changed.
func RenderConvergence(title string, rows []ConvergenceRow) string {
	if len(rows) == 0 {
		return title + ": no data\n"
	}
	passNames := rows[0].Passes
	var cols []string
	frac := make([][]float64, len(passNames))
	for pi := range passNames {
		frac[pi] = make([]float64, len(rows))
	}
	for bi, r := range rows {
		cols = append(cols, r.Benchmark)
		for pi := range r.Fractions {
			if pi < len(frac) {
				frac[pi][bi] = r.Fractions[pi]
			}
		}
	}
	return title + "\n(fraction of instructions whose preferred cluster changed at each pass)\n\n" +
		textplot.Heat(passNames, cols, frac)
}

// RenderFig8 prints Figure 8 as grouped bars.
func RenderFig8(rows []Fig8Row) string {
	var labels []string
	var values [][]float64
	for _, r := range rows {
		labels = append(labels, r.Benchmark)
		values = append(values, []float64{r.PCC, r.UAS, r.Conv})
	}
	var b strings.Builder
	b.WriteString("Figure 8: PCC vs UAS vs convergent on a 4-cluster VLIW (speedup vs 1 cluster)\n\n")
	b.WriteString(textplot.Bars(labels, []string{"PCC", "UAS", "Convergent"}, values, 50))
	fmt.Fprintf(&b, "convergent vs UAS: %+.1f%%   convergent vs PCC: %+.1f%% (geometric mean)\n",
		100*Fig8GeoMeanImprovement(rows, "uas"), 100*Fig8GeoMeanImprovement(rows, "pcc"))
	for _, r := range rows {
		if r.Served != "" && r.Served != "convergent" {
			fmt.Fprintf(&b, "note: %s's convergent column served by fallback rung %s\n", r.Benchmark, r.Served)
		}
	}
	return b.String()
}

// RenderResilience prints the resilience matrix: one line per injected
// fault class, naming the rung that served and what the first failing rung
// reported.
func RenderResilience(rows []ResilienceRow) string {
	var trows [][]string
	for _, r := range rows {
		served := r.Served
		if served == "" {
			served = "NONE (resilience bug)"
		}
		trows = append(trows, []string{
			r.Machine, r.Kernel, r.Class, served,
			fmt.Sprintf("%d", r.FailedRungs),
			fmt.Sprintf("%.1f", r.Millis),
			r.FirstError,
		})
	}
	return "Resilience: serving rung per injected fault class (all schedules verified against reference execution)\n\n" +
		textplot.Table([]string{"machine", "kernel", "fault", "served-by", "failed", "ms", "first failure"}, trows)
}

// RenderFig10 prints Figure 10 as a log-scale scatter plus the raw numbers.
func RenderFig10(rows []Fig10Row) string {
	var xs []int
	ys := make([][]float64, 3)
	var trows [][]string
	for _, r := range rows {
		xs = append(xs, r.Instrs)
		ys[0] = append(ys[0], r.PCCSec)
		ys[1] = append(ys[1], r.UASSec)
		ys[2] = append(ys[2], r.ConvSec)
		trows = append(trows, []string{
			fmt.Sprintf("%d", r.Instrs),
			fmt.Sprintf("%.4f", r.PCCSec),
			fmt.Sprintf("%.4f", r.UASSec),
			fmt.Sprintf("%.4f", r.ConvSec),
		})
	}
	var b strings.Builder
	b.WriteString("Figure 10: scheduling time (seconds) vs instruction count on the 4-cluster VLIW\n\n")
	b.WriteString(textplot.Table([]string{"instrs", "PCC", "UAS", "Convergent"}, trows))
	b.WriteByte('\n')
	b.WriteString(textplot.LogLines(xs, []string{"PCC", "UAS", "Convergent"}, ys, 14))
	return b.String()
}

// RenderFig4 prints the preference-map evolution frames.
func RenderFig4() string {
	names, frames := Fig4Frames()
	var b strings.Builder
	b.WriteString("Figure 4: cluster-preference map of an fpppp slice, evolving pass by pass\n")
	b.WriteString("(rows: instructions; columns: clusters; darker = stronger preference)\n\n")
	for i, n := range names {
		fmt.Fprintf(&b, "after %s:\n%s\n", n, frames[i])
	}
	return b.String()
}

// RenderThetaSweep prints the PCC θ sensitivity table.
func RenderThetaSweep(rows []ThetaRow) string {
	var trows [][]string
	for _, r := range rows {
		trows = append(trows, []string{
			fmt.Sprintf("%d", r.Theta),
			fmt.Sprintf("%d", r.TotalCycles),
			fmt.Sprintf("%.4f", r.Seconds),
		})
	}
	return "Extra: PCC component-size threshold sweep (VLIW suite totals)\n\n" +
		textplot.Table([]string{"theta", "total-cycles", "seconds"}, trows)
}
