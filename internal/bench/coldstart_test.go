package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestColdstartQuick(t *testing.T) {
	rows, err := ColdstartSizes(QuickOptions(), []int{25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Formats != 25 {
		t.Fatalf("Formats = %d, want 25", r.Formats)
	}
	for name, v := range map[string]float64{
		"warm":    r.WarmRegsPerSec,
		"replay":  r.ReplayRegsPerSec,
		"remote":  r.RemoteRegsPerSec,
		"speedup": r.Speedup,
		"us/reg":  r.ReplayMicrosPerReg,
	} {
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}

	recs := ColdstartRecords(rows)
	if len(recs) != 5 {
		t.Fatalf("ColdstartRecords: %d records, want 5", len(recs))
	}
	for _, rec := range recs {
		if rec.Figure != "coldstart" || rec.Config != "25formats" {
			t.Fatalf("bad record identity: %+v", rec)
		}
	}
	if missing := RequireFigures([]string{"coldstart"}, recs); len(missing) != 0 {
		t.Fatalf("RequireFigures: %v", missing)
	}

	var buf bytes.Buffer
	PrintColdstart(&buf, rows)
	if !strings.Contains(buf.String(), "25") {
		t.Fatalf("PrintColdstart output missing row: %q", buf.String())
	}
}
