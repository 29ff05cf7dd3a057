package main

import (
	"testing"
	"time"
)

// shrink makes every workload run end to end in well under a second:
// 200 ms windows, one set-up, a 40-lineage catalogue.
func shrink(t *testing.T) {
	saved := sizing
	sizing.window = 200 * time.Millisecond
	sizing.setupRepeats, sizing.setupMax = 1, 1
	sizing.warmDivisor = 50
	sizing.catalogue = 40
	sizing.minRestarts = 2
	t.Cleanup(func() { sizing = saved })
}

// Burst and ping windows alternate, so that a slow episode of the host
// cannot swallow all the windows of one kind.
func TestPhasePlanInterleaves(t *testing.T) {
	plan := phasePlan(16, false)
	if len(plan) != 16 || count(plan, burstWindow) != 9 || count(plan, pingWindow) != 7 {
		t.Fatalf("plan %v: want 9 burst and 7 ping windows", plan)
	}
	for i := 2; i < len(plan); i++ {
		if plan[i] == plan[i-1] && plan[i] == plan[i-2] {
			t.Errorf("plan %v: three windows of one kind in a row at %d", plan, i)
		}
	}
	for _, seconds := range []int{1, 2, 3, 5, 60} {
		for _, traced := range []bool{false, true} {
			plan := phasePlan(seconds, traced)
			if count(plan, burstWindow) == 0 || count(plan, pingWindow) == 0 {
				t.Errorf("%d s, traced=%v: plan %v lacks a kind of window", seconds, traced, plan)
			}
			if traced && count(plan, burstTracedWindow) == 0 {
				t.Errorf("%d s traced: plan %v has no traced burst window", seconds, plan)
			}
		}
	}
	traced := phasePlan(16, true)
	if count(traced, burstWindow) != 4 || count(traced, burstTracedWindow) != 4 || count(traced, pingWindow) != 8 {
		t.Errorf("traced plan %v: want 4 + 4 burst and 8 ping windows", traced)
	}
}

func TestEveryWorkloadEndToEnd(t *testing.T) {
	shrink(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, err := wl.run(DevSeed, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Errorf("failed=%d (%s)", res.Failed, res.Fails)
			}
			if res.Attempted < 1 {
				t.Errorf("attempted=%d", res.Attempted)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Value <= 0 || got.Unit != m.Unit {
					t.Errorf("%s = %+v (present=%v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
		})
	}
}

func TestTracedPassReportsEveryLayerAndWellFormedSpans(t *testing.T) {
	shrink(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, err := wl.run(HeldOutSeed, 4, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Errorf("failed=%d (%s)", res.Failed, res.Fails)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value < 0 {
					t.Errorf("%s = %+v (present=%v)", m.Name, got, ok)
				}
			}
			if res.Metrics["trace.overhead_ratio"].Value <= 0 {
				t.Error("trace.overhead_ratio not reported")
			}
			if res.Metrics["host.ns_per_step"].Value <= 0 {
				t.Error("host.ns_per_step not reported")
			}
			checkSpans(t, res.Spans)
		})
	}
}

// checkSpans verifies trace well-formedness: known parents recorded before
// their children, end >= start, non-negative self times, one event id per
// operation, and shares that do not exceed the whole.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	byID := map[int]span{}
	for i, s := range spans {
		if s.ID != i+1 {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				t.Fatalf("span %d %s: parent %d unknown or recorded later", s.ID, s.Name, s.Parent)
			}
			if p.Event != s.Event {
				t.Errorf("span %d %s: event %d differs from its parent's %d", s.ID, s.Name, s.Event, p.Event)
			}
		}
		byID[s.ID] = s
	}
	for id, ns := range selfTimes(spans) {
		if ns < 0 {
			t.Errorf("span %d %s: self time %d ns", id, byID[id].Name, ns)
		}
	}
	rows, layers := shares(spans)
	var sum float64
	for _, r := range rows {
		sum += r.Share
	}
	// Stages tile their operation, so the shares add up to the whole.
	if sum > 1.001 || sum < 0.9 {
		t.Errorf("self-time shares sum to %.3f", sum)
	}
	if len(layers) < 2 {
		t.Errorf("only layers %v in the trace", layers)
	}
}
