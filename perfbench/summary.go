package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// summarize reads result files and prints, per workload and run kind, each
// metric's median, quartiles and spread (interquartile range over median).
func summarize(paths []string, w io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("--summary needs result files as arguments")
	}
	type group struct {
		runs    int
		steal   []float64
		correct int
		values  map[string][]float64
		units   map[string]string
	}
	groups := map[string]*group{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		key := fmt.Sprintf("%s trace=%d", rec.Workload, rec.Trace)
		g := groups[key]
		if g == nil {
			g = &group{values: map[string][]float64{}, units: map[string]string{}}
			groups[key] = g
		}
		g.runs++
		g.steal = append(g.steal, float64(rec.Env.StealTicks))
		if rec.Result.Correct {
			g.correct++
		}
		for name, m := range rec.Result.Metrics {
			g.values[name] = append(g.values[name], m.Value)
			g.units[name] = m.Unit
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	for _, k := range keys {
		g := groups[k]
		fmt.Fprintf(tw, "%s: %d runs, %d correct, median steal %.0f ticks\t\t\t\t\t\t\n", k, g.runs, g.correct, median(g.steal))
		fmt.Fprintf(tw, "metric\tunit\tn\tq1\tmedian\tq3\tspread\t\n")
		names := make([]string, 0, len(g.values))
		for n := range g.values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := g.values[n]
			med := median(v)
			q1, q3 := med, med
			if len(v) >= 2 {
				q1, q3 = quartiles(v)
			}
			spread := "-"
			if med != 0 {
				spread = fmt.Sprintf("%.1f%%", 100*(q3-q1)/med)
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%s\t\n", n, g.units[n], len(v), q1, med, q3, spread)
		}
		fmt.Fprintln(tw, "\t\t\t\t\t\t\t")
	}
	return tw.Flush()
}

// quartiles returns the first and third quartiles by the exclusive method
// of Python's statistics.quantiles(data, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, n := len(s), 4
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}
