package main

import (
	"fmt"
	"io"
	"math"
)

// compareRow is one (workload, metric) pair of two result files.
type compareRow struct {
	Workload, Metric, Unit string
	A, B                   float64
	// Worse is how much worse B is than A as a share of A, in the metric's
	// own direction: positive is a regression, negative a gain.
	Worse  float64
	Bound  float64 // 0 on layer metrics, which never fail a comparison
	Breach bool
}

// worseBy returns how much worse b is than a, as a share of a. From a base of
// 0 any move is infinite, in its direction.
func worseBy(a, b float64, better string) float64 {
	worse := b - a
	if better == "higher" {
		worse = a - b
	}
	if a == 0 && worse == 0 {
		return 0
	}
	return worse / math.Abs(a)
}

// compareResults lines up two sets of results, A the baseline. It refuses —
// with an error — sets from different host shapes or seeds, which are never
// compared, and a result measured with host_ok false, which is not a
// parallel measurement. A breach is a bounded metric worse by more than its
// bound, a fail_share that went up, or a workload or bounded metric of A that
// B lacks; layer metrics are listed and never breach.
func compareResults(a, b []Result) (rows []compareRow, breaches []string, err error) {
	type key struct {
		workload string
		trace    bool
	}
	inB := map[key]Result{}
	for _, r := range b {
		inB[key{r.Workload, r.Trace}] = r
	}
	matched := 0
	for _, ra := range a {
		rb, ok := inB[key{ra.Workload, ra.Trace}]
		if !ok {
			breaches = append(breaches, fmt.Sprintf("%s (trace %v): missing from B", ra.Workload, ra.Trace))
			continue
		}
		matched++
		if ra.Shape != rb.Shape {
			return nil, nil, fmt.Errorf("%s: host shapes differ (%+v vs %+v); results from different shapes are never compared",
				ra.Workload, ra.Shape, rb.Shape)
		}
		if ra.Seed != rb.Seed {
			return nil, nil, fmt.Errorf("%s: seeds differ (%d vs %d)", ra.Workload, ra.Seed, rb.Seed)
		}
		if !ra.HostOK || !rb.HostOK {
			return nil, nil, fmt.Errorf("%s: host_ok is false (A %v, B %v); a run on a serialized host is not compared",
				ra.Workload, ra.HostOK, rb.HostOK)
		}
		if rb.FailShare > ra.FailShare {
			breaches = append(breaches, fmt.Sprintf("%s: fail_share rose from %g to %g", ra.Workload, ra.FailShare, rb.FailShare))
		}
		for _, s := range allMetrics() {
			ma, okA := ra.Metrics[s.Name]
			mb, okB := rb.Metrics[s.Name]
			if !okA {
				continue
			}
			if !okB {
				if s.Bound > 0 {
					breaches = append(breaches, fmt.Sprintf("%s %s: missing from B", ra.Workload, s.Name))
				}
				continue
			}
			row := compareRow{Workload: ra.Workload, Metric: s.Name, Unit: s.Unit,
				A: ma.Value, B: mb.Value, Worse: worseBy(ma.Value, mb.Value, s.Better), Bound: s.Bound}
			if s.Bound > 0 && row.Worse > s.Bound {
				row.Breach = true
				breaches = append(breaches, fmt.Sprintf("%s %s: %.4g -> %.4g %s is %.1f%% worse (bound %.0f%%)",
					ra.Workload, s.Name, ma.Value, mb.Value, s.Unit, 100*row.Worse, 100*s.Bound))
			}
			rows = append(rows, row)
		}
	}
	if matched == 0 {
		return nil, nil, fmt.Errorf("the two files share no (workload, trace) pair")
	}
	return rows, breaches, nil
}

// compareFiles is -compare A.json B.json.
func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	var a, b resultFile
	if err := readJSONFile(pathA, &a); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return exitError
	}
	if err := readJSONFile(pathB, &b); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return exitError
	}
	rows, breaches, err := compareResults(a.Results, b.Results)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return exitError
	}
	fmt.Fprintf(stdout, "%-14s %-40s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, r := range rows {
		bound, mark := "-", ""
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*r.Bound)
		}
		if r.Breach {
			mark = "  BREACH"
		}
		fmt.Fprintf(stdout, "%-14s %-40s %14.4f %14.4f %+8.1f%% %7s%s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Worse, bound, mark)
	}
	for _, br := range breaches {
		fmt.Fprintln(stdout, "breach:", br)
	}
	if len(breaches) > 0 {
		return exitRegressed
	}
	return exitOK
}
