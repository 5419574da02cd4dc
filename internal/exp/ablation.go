package exp

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/regalloc"
	"repro/internal/robust"
	"repro/internal/textplot"
)

// ablationRegs is the per-cluster register count of the spill column.
const ablationRegs = 12

// AblationRow is one pass-sequence variant of a design choice, scheduled
// over its machine's suite. Each machine's rows open with its reference
// sequence (ratio 1).
type AblationRow struct {
	Machine, Choice, Variant string
	// Ratio is the mean over kernels of variant / reference schedule length
	// (below 1: the variant schedules shorter).
	Ratio float64
	// Cycles and Spills total the suite's schedule lengths and its regalloc
	// spills at ablationRegs registers.
	Cycles, Spills int
	// Degraded names each cell served by a rung other than convergent.
	Degraded []string
}

// Ablations reproduces the ablations of the design choices DESIGN.md calls
// out. Every cell is a batch-engine job whose ladder starts with the
// convergent rung over the variant's sequence, then falls back to the
// machine's baseline and the list rung, so a failing variant is footnoted
// rather than fatal.
func Ablations() ([]AblationRow, error) {
	type ablation struct {
		m               *machine.Model
		suite           []bench.Kernel
		choice, variant string
		seq             []core.Pass
	}
	vliw, raw := passes.VliwSequence(), passes.RawSequence()
	v4, vs, r16, rs := machine.Chorus(4), bench.VliwSuite(), machine.Raw(16), bench.RawSuite()
	rows := []ablation{
		{v4, vs, "reference", "Table 1b + FULOAD", vliw},
		{v4, vs, "NOISE", "off", replaced(vliw, "NOISE", nil)},
		{v4, vs, "FULOAD", "plain LOAD", replaced(vliw, "FULOAD", passes.Load{})},
		{v4, vs, "FULOAD", "none (published Table 1b)", passes.PublishedVliwSequence()},
		{v4, vs, "REGPRES", "before EMPHCP", slices.Insert(slices.Clone(vliw), len(vliw)-1, core.Pass(passes.RegPres{}))},
		{r16, rs, "reference", "Table 1a", raw},
	}
	for _, n := range []int{1, 2, 4, 8} {
		rows = append(rows, ablation{r16, rs, "LEVEL", fmt.Sprintf("stride %d", n), replaced(raw, "LEVEL", passes.Level{Stride: n})})
	}
	for _, th := range []float64{1.2, 2, 4, 8} {
		rows = append(rows, ablation{r16, rs, "PATHPROP", fmt.Sprintf("threshold %g", th), replaced(raw, "PATHPROP", passes.PathProp{Threshold: th})})
	}
	// Rotating the passes between INITTIME and EMPHCP probes the claim that
	// revisable preferences make the framework robust to phase ordering.
	for rot, mid := 1, raw[1:len(raw)-1]; rot <= 3; rot++ {
		rows = append(rows, ablation{r16, rs, "order", fmt.Sprintf("rotate %d", rot), slices.Concat(raw[:1], mid[rot:], mid[:rot], raw[len(raw)-1:])})
	}

	var jobs []engine.Job
	for _, a := range rows {
		ladder := []robust.Rung{robust.ConvergentRung("convergent", a.m, a.seq, Seed), robust.BaselineRung(a.m), robust.ListRung(a.m)}
		for _, k := range a.suite {
			jobs = append(jobs, engine.Job{ID: k.Name, Graph: k.Build(a.m.NumClusters), Machine: a.m, Opts: robust.Options{Seed: Seed, Ladder: ladder}})
		}
	}
	res := convergentBatch(jobs)

	var out []AblationRow
	var ref []int // the reference lengths of the current machine's rows
	for _, a := range rows {
		r := AblationRow{Machine: a.m.Name, Choice: a.choice, Variant: a.variant}
		var lens []int
		for _, k := range a.suite {
			cr := res[0]
			res = res[1:]
			if cr.Err != nil {
				return nil, fmt.Errorf("exp: ablation %s %s: %s: %w", a.choice, a.variant, k.Name, cr.Err)
			}
			ra, err := regalloc.Allocate(cr.Schedule, ablationRegs)
			if err == nil {
				err = verifyKernel(cr.Schedule, k, a.m.NumClusters)
			}
			if err != nil {
				return nil, err
			}
			lens = append(lens, cr.Schedule.Length())
			r.Cycles += cr.Schedule.Length()
			r.Spills += ra.SpillCount()
			if cr.Served != "convergent" {
				r.Degraded = append(r.Degraded, fmt.Sprintf("%s %s: %s on %s served by %s", a.choice, a.variant, k.Name, a.m.Name, cr.Served))
			}
		}
		if a.choice == "reference" {
			ref = lens
		}
		for i, l := range lens {
			r.Ratio += float64(l) / float64(ref[i])
		}
		r.Ratio /= float64(len(lens))
		out = append(out, r)
	}
	return out, nil
}

// replaced returns a copy of seq with every pass named name replaced by
// repl, or dropped when repl is nil.
func replaced(seq []core.Pass, name string, repl core.Pass) []core.Pass {
	var out []core.Pass
	for _, p := range seq {
		if p.Name() == name {
			p = repl
		}
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// RenderAblations prints the ablation table. A ratio with a cell served by
// a fallback rung is marked with '*' and the cell disclosed below.
func RenderAblations(rows []AblationRow) string {
	var trows [][]string
	var degraded []string
	for _, r := range rows {
		ratio := fmt.Sprintf("%.4f", r.Ratio)
		if len(r.Degraded) > 0 {
			ratio += "*"
			degraded = append(degraded, r.Degraded...)
		}
		trows = append(trows, []string{r.Machine, r.Choice, r.Variant, ratio, strconv.Itoa(r.Cycles), strconv.Itoa(r.Spills)})
	}
	out := "Ablations: pass-sequence variants against each machine's reference sequence\n" +
		"(len-ratio: mean over the suite of variant / reference schedule length; below 1 = shorter)\n\n" +
		textplot.Table([]string{"machine", "choice", "variant", "len-ratio", "cycles", fmt.Sprintf("spills@%d", ablationRegs)}, trows)
	for _, d := range degraded {
		out += fmt.Sprintf("* %s (convergent pipeline degraded)\n", d)
	}
	return out
}
