package main

import (
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root is the contract later changes are
// held to; the names, units and directions in it must be the ones this
// program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q differs from the program's %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, listed []boundSpec, have []metricSpec, bounded bool) {
		if len(listed) != len(have) {
			t.Fatalf("%s: %d listed, program prints %d", kind, len(listed), len(have))
		}
		name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
		unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
		for i, m := range listed {
			h := have[i]
			if m.Name != h.Name || m.Unit != h.Unit || m.Better != h.Better {
				t.Errorf("%s %d: listed %+v, program has %+v", kind, i, m, h)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s %q (%q) is outside the contract's character set", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better=%q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
}
