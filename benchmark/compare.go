package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the program reads back: the run
// length and the bound of each end-to-end metric.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []boundSpec `json:"per_layer"`
}

// boundSpec is one metric's entry in BENCHMARK.json.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// setupFloorS is the set-up time below which differences are not resolved:
// both sides are raised to it before they are compared.
const setupFloorS = 0.2

// worsening is how much worse `change` is than `base` for the metric, as a
// share of base: positive when worse, negative when better, whatever the
// metric's direction.
func worsening(m boundSpec, base, change float64) float64 {
	if m.Name == "setup_s" {
		base, change = max(base, setupFloorS), max(change, setupFloorS)
	}
	if base == 0 {
		if change == 0 {
			return 0
		}
		return 1
	}
	if m.Better == "higher" {
		return (base - change) / base
	}
	return (change - base) / base
}

// withinBound reports whether change is no worse than base by more than the
// metric's bound.
func withinBound(m boundSpec, base, change float64) bool {
	return worsening(m, base, change) <= m.Bound
}

// failuresWithinBound is the absolute rule for failed operations: any rise
// is a regression, and the baseline itself must be clean.
func failuresWithinBound(base, change int64) bool {
	return base == 0 && change <= base
}

// compareRuns prints, per workload and end-to-end metric, how the second set
// of results differs from the first, and reports whether every cell is
// within its bound in both directions (an A/A pair has no "change" side, so
// neither run may be worse than the other by more than the bound).
func compareRuns(w io.Writer, spec *benchSpec, first, second []*result) bool {
	ok := true
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i, a := range first {
		b := second[i]
		for _, m := range spec.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			cell := withinBound(m, va, vb) && withinBound(m, vb, va)
			mark := ""
			if !cell {
				mark, ok = "  MISS", false
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				a.Workload, m.Name, va, vb, 100*worsening(m, va, vb), 100*m.Bound, mark)
		}
		cell := failuresWithinBound(a.Failed, b.Failed)
		mark := ""
		if !cell {
			mark, ok = "  MISS", false
		}
		fmt.Fprintf(w, "%-14s %-16s %14d %14d %9s %7s%s\n", a.Workload, "failed", a.Failed, b.Failed, "", "0", mark)
	}
	return ok
}
