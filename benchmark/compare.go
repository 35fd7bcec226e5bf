package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric's value over a file's untraced runs of a
// workload.
func values(f *resultFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// verdict judges next against base for one metric: worse by more than
// the bound is a regression; a spread between either side's own runs
// wider than the bound leaves the pair unresolved — not unchanged —
// unless every new run reads better than every base run.
func verdict(spec metricSpec, base, next []float64) (string, float64) {
	mb, mn := median(base), median(next)
	ratio := mn / mb
	worse := ratio - 1
	if spec.Better == "higher" {
		worse = 1 - ratio
	}
	if spread(base) > spec.Bound || spread(next) > spec.Bound {
		allBetter := true
		for _, b := range base {
			for _, n := range next {
				if (spec.Better == "higher" && n <= b) || (spec.Better == "lower" && n >= b) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved", ratio
		}
	}
	switch {
	case worse > spec.Bound:
		return "REGRESSION", ratio
	case worse < -spec.Bound:
		return "better", ratio
	default:
		return "within bound", ratio
	}
}

// compareFiles prints one row per workload and end-to-end metric and
// returns an error when any row is a regression.
func compareFiles(w io.Writer, basePath, newPath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	next, err := readResults(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base %s: commit %s, nproc %d, GOMAXPROCS %d\n", basePath, base.Stamp.Commit, base.Stamp.NProc, base.Stamp.GOMAXPROCS)
	fmt.Fprintf(w, "new  %s: commit %s, nproc %d, GOMAXPROCS %d\n", newPath, next.Stamp.Commit, next.Stamp.NProc, next.Stamp.GOMAXPROCS)
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %8s %6s  %s\n", "workload", "metric", "base median", "new median", "new/base", "bound", "verdict")
	regressions := 0
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			b, n := values(base, wl.name, spec.Name), values(next, wl.name, spec.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			v, ratio := verdict(spec, b, n)
			if v == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g %8.3f %6.2f  %s (runs %d vs %d, spread %.3f vs %.3f)\n",
				wl.name, spec.Name, median(b), median(n), ratio, spec.Bound, v, len(b), len(n), spread(b), spread(n))
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	return nil
}
