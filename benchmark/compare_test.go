package main

import "testing"

func TestWorseningIsDirectionAware(t *testing.T) {
	lower := boundSpec{Name: "latency_p50_us", Better: "lower", Bound: 0.10}
	higher := boundSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m            boundSpec
		base, change float64
		ok           bool
	}{
		{lower, 100, 109, true},
		{lower, 100, 111, false},
		{lower, 100, 50, true}, // an improvement is never a miss
		{higher, 1000, 905, true},
		{higher, 1000, 890, false},
		{higher, 1000, 5000, true},
	} {
		if got := withinBound(c.m, c.base, c.change); got != c.ok {
			t.Errorf("%s %v -> %v: within=%v, want %v (worsening %.3f)",
				c.m.Name, c.base, c.change, got, c.ok, worsening(c.m, c.base, c.change))
		}
	}
	if w := worsening(higher, 1000, 900); w < 0.0999 || w > 0.1001 {
		t.Errorf("higher-is-better worsening = %v, want 0.1", w)
	}
}

func TestSetupFloor(t *testing.T) {
	m := boundSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	if !withinBound(m, 0.02, 0.15) {
		t.Error("set-up times under the 0.2 s floor must compare equal")
	}
	if withinBound(m, 0.1, 0.3) {
		t.Error("0.1 s -> 0.3 s is 50% over the floor and must miss")
	}
	if !withinBound(m, 1.0, 1.2) || withinBound(m, 1.0, 1.3) {
		t.Error("above the floor the relative bound applies")
	}
	other := boundSpec{Name: "latency_p50_us", Better: "lower", Bound: 0.25}
	if withinBound(other, 0.02, 0.15) {
		t.Error("the floor is for setup_s only")
	}
}

func TestFailuresAreAbsolute(t *testing.T) {
	if !failuresWithinBound(0, 0) {
		t.Error("0 -> 0 must pass")
	}
	if failuresWithinBound(0, 1) {
		t.Error("any rise fails")
	}
	if failuresWithinBound(3, 3) {
		t.Error("a baseline with failures is not a baseline")
	}
}

func TestCompareRunsFlagsEitherDirection(t *testing.T) {
	spec := &benchSpec{EndToEnd: []boundSpec{{Name: "ops_per_s", Better: "higher", Bound: 0.10}}}
	mk := func(v float64) []*result {
		return []*result{{Workload: "w", Metrics: map[string]metric{"ops_per_s": {Value: v}}}}
	}
	var sink discard
	if !compareRuns(&sink, spec, mk(1000), mk(950)) {
		t.Error("5% apart must pass")
	}
	if compareRuns(&sink, spec, mk(1000), mk(800)) || compareRuns(&sink, spec, mk(800), mk(1000)) {
		t.Error("an A/A pair 20-25% apart must miss whichever run came first")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
