package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// compareReports prints one row per workload and end-to-end metric, and on
// stream per plain-ingest latency too, for two sets of runs, a (the
// baseline) and b (the change): each side's median and quartiles, how many of
// the pairs (a[i], b[i]) b won, and a verdict against the metric's bound. A
// row is "regressed" when b's median is worse than a's by more than the bound,
// "unresolved" when either side's spread (quartile distance over median) is
// wider than the bound and b does not beat a on every run, and "ok"
// otherwise. It returns the number of regressed rows.
func compareReports(out io.Writer, a, b []*report) int {
	regressed := 0
	fmt.Fprintf(out, "%-8s %-16s %-6s %-34s %-34s %-6s %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, w := range workloads {
		for _, def := range slices.Concat(endToEnd, ingestMetrics) {
			av, bv := values(a, w.name, def.name), values(b, w.name, def.name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			aq1, amed, aq3 := quartiles(av)
			bq1, bmed, bq3 := quartiles(bv)
			wins, pairs := 0, min(len(av), len(bv))
			for i := range pairs {
				if better(def, bv[i], av[i]) {
					wins++
				}
			}
			verdict := "ok"
			switch {
			case worseBy(def, bmed, amed) > def.bound:
				verdict = "regressed"
				regressed++
			case (spread(aq1, amed, aq3) > def.bound || spread(bq1, bmed, bq3) > def.bound) && !dominates(def, bv, av):
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-8s %-16s %-6s %-34s %-34s %-6s %s\n", w.name, def.name, def.unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", amed, aq1, aq3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", bmed, bq1, bq3),
				fmt.Sprintf("%d/%d", wins, pairs), verdict)
		}
	}
	return regressed
}

// values collects one metric of one workload across runs.
func values(reps []*report, workload, name string) []float64 {
	var v []float64
	for _, rep := range reps {
		if res, ok := rep.Workloads[workload]; ok {
			if m, ok := res.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// better reports whether x is strictly better than y for the metric.
func better(def metricDef, x, y float64) bool {
	if def.better == "higher" {
		return x > y
	}
	return x < y
}

// worseBy is how much worse b is than a, as a share of a (negative when b is
// better).
func worseBy(def metricDef, b, a float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if def.better == "higher" {
		d = -d
	}
	return d
}

func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// dominates reports whether every run in b is better than every run in a.
func dominates(def metricDef, b, a []float64) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(def, x, y) {
				return false
			}
		}
	}
	return true
}
