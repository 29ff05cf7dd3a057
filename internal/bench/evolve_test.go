package bench

import (
	"strings"
	"testing"
)

func TestEvolveQuick(t *testing.T) {
	rows, err := EvolveStepCounts(QuickOptions(), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.HeadEventsPerSec <= 0 || r.PinnedEventsPerSec <= 0 {
		t.Errorf("non-positive rates: %+v", r)
	}
	// Every event must be projected (the publisher is at the head, which
	// is never version 1) exactly once, however many subscribers pin v1.
	if want := 1.0 / evolveSubscribers; r.ProjectedPerEvent < 0.99*want || r.ProjectedPerEvent > 1.01*want {
		t.Errorf("projections/delivery = %v, want %v (one projection per event shared by %d subscribers)",
			r.ProjectedPerEvent, want, evolveSubscribers)
	}

	recs := EvolveRecords(rows)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for _, rec := range recs {
		// The projection ratio must not gate (it is not a rate).
		if strings.Contains(rec.Metric, "projected") == rec.isRate() {
			t.Errorf("record %s/%s: unit %q gates=%v", rec.Metric, rec.Config, rec.Unit, rec.isRate())
		}
	}

	var sb strings.Builder
	PrintEvolve(&sb, rows)
	out := sb.String()
	for _, want := range []string{"View negotiation", "head ev/s", "pinned ev/s", "slowdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("PrintEvolve output missing %q:\n%s", want, out)
		}
	}
}

// TestMergeRecords pins the -count aggregation: mean over reps, min/max
// spread, stable identity and ordering, and pass-through for single runs.
func TestMergeRecords(t *testing.T) {
	a := []JSONRecord{
		record("evolve", "1steps", "head_events", 100, "events/s"),
		record("evolve", "1steps", "pinned_events", 40, "events/s"),
	}
	b := []JSONRecord{
		record("evolve", "1steps", "head_events", 300, "events/s"),
		record("evolve", "1steps", "pinned_events", 20, "events/s"),
		record("evolve", "4steps", "head_events", 90, "events/s"),
	}
	merged := MergeRecords([][]JSONRecord{a, b})
	if len(merged) != 3 {
		t.Fatalf("got %d merged records, want 3", len(merged))
	}
	head := merged[0]
	if head.Metric != "head_events" || head.Value != 200 || head.Min != 100 || head.Max != 300 || head.Reps != 2 {
		t.Errorf("head merge = %+v, want mean 200, min 100, max 300, reps 2", head)
	}
	if m := merged[1]; m.Value != 30 || m.Min != 20 || m.Max != 40 {
		t.Errorf("pinned merge = %+v, want mean 30, min 20, max 40", m)
	}
	// A record present in only one run is averaged over that run alone.
	if m := merged[2]; m.Config != "4steps" || m.Value != 90 || m.Reps != 1 {
		t.Errorf("partial-run merge = %+v, want value 90, reps 1", m)
	}
	// Single runs pass through untouched: no reps/min/max stamped.
	single := MergeRecords([][]JSONRecord{a})
	if len(single) != 2 || single[0].Reps != 0 {
		t.Errorf("single-run merge altered records: %+v", single)
	}
	// Merged means still gate: the key and unit survive merging.
	base := []JSONRecord{record("evolve", "1steps", "head_events", 1000, "events/s")}
	if regs := CompareJSON(base, merged, 0.35); len(regs) != 1 {
		t.Errorf("merged record did not gate against baseline: %v", regs)
	}
}
