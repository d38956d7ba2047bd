package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compare.go is the A/A (and parent/change) comparator: one row per
// workload and end-to-end metric, with both medians, both quartile
// ranges, the change and the metric's bound. A row whose run-to-run
// quartile spread is wider than the bound is `unresolved`, not
// `unchanged`; a regression beyond the bound fails the comparison.

func readResult(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res suiteResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// spreadOf is the distance between the quartiles as a share of the
// median: across runs when there are at least four, else inside the
// run where the metric is a median of timed units, else unknown (0).
func spreadOf(mr metricResult) dist {
	if len(mr.Values) >= 4 || mr.Within == nil {
		return summarize(mr.Values)
	}
	return *mr.Within
}

func share(d dist) float64 { return ratio(d.Q3-d.Q1, d.Median) }

// compareResults writes the table and reports whether any row
// regressed.
func compareResults(w io.Writer, a, b *suiteResult) (regressed bool) {
	fmt.Fprintf(w, "a: commit=%s seed=%d seconds=%g runs=%d   b: commit=%s seed=%d seconds=%g runs=%d\n",
		a.Env.Commit, a.Seed, a.Seconds, a.Runs, b.Env.Commit, b.Seed, b.Seconds, b.Runs)
	fmt.Fprintf(w, "%-16s %-15s %12s %22s %12s %22s %8s %6s  %s\n",
		"workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3", "worse", "bound", "verdict")
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s missing from b\n", wa.Name)
			regressed = true
			continue
		}
		for _, d := range endToEndMetrics {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			medA, medB := median(ma.Values), median(mb.Values)
			sa, sb := spreadOf(ma), spreadOf(mb)
			// worse > 0 means b is worse than a, as a share of a.
			worse := ratio(medB-medA, medA)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case max(share(sa), share(sb)) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-15s %12.6g %10.5g..%-10.5g %12.6g %10.5g..%-10.5g %+7.1f%% %5.0f%%  %s\n",
				wa.Name, d.Name, medA, sa.Q1, sa.Q3, medB, sb.Q1, sb.Q3, 100*worse, 100*d.Bound, verdict)
		}
		verdict := "ok"
		if wb.FailedShare > wa.FailedShare {
			verdict = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-16s %-15s %12.6g %22s %12.6g %22s %8s %6s  %s\n",
			wa.Name, "failed_share", wa.FailedShare, "", wb.FailedShare, "", "", "any", verdict)
	}
	return regressed
}

func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	return compareResults(w, a, b), nil
}
