package bench

import (
	"strings"
	"testing"
)

func TestEvolveMeshQuick(t *testing.T) {
	rows, err := EvolveMeshStepCounts(QuickOptions(), []int{2})
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
	// The publisher is at the head and every subscriber is pinned to v1
	// through the remote broker, so every event must have been projected —
	// once, for all of them, on the remote, which learned the lineage only
	// from gossip.
	if want := 1.0 / evolveSubscribers; r.ProjectedPerEvent < 0.99*want || r.ProjectedPerEvent > 1.01*want {
		t.Errorf("projections/delivery = %v, want %v (one projection per event on the remote, shared by %d subscribers)",
			r.ProjectedPerEvent, want, evolveSubscribers)
	}

	recs := EvolveMeshRecords(rows)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for _, rec := range recs {
		if rec.Figure != "evolve-mesh" {
			t.Errorf("record figure = %q, want evolve-mesh", rec.Figure)
		}
		// The projection ratio must not gate (it is not a rate).
		if strings.Contains(rec.Metric, "projected") == rec.isRate() {
			t.Errorf("record %s/%s: unit %q gates=%v", rec.Metric, rec.Config, rec.Unit, rec.isRate())
		}
	}

	var sb strings.Builder
	PrintEvolveMesh(&sb, rows)
	out := sb.String()
	for _, want := range []string{"Federated view negotiation", "head ev/s", "pinned ev/s", "slowdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("PrintEvolveMesh output missing %q:\n%s", want, out)
		}
	}
}
