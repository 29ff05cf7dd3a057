package bench

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func rateRec(metric string, value float64, reps int, min, max float64) JSONRecord {
	return JSONRecord{
		Figure: "fanout", Config: "16subs", Metric: metric,
		Value: value, Unit: "events/s", Reps: reps, Min: min, Max: max,
	}
}

// TestPerMetricTolerance pins the spread-to-tolerance mapping: a merged
// baseline's own run-to-run variance decides how hard each metric gates,
// clamped around the global knob, with single-run and malformed records
// falling back to the knob exactly.
func TestPerMetricTolerance(t *testing.T) {
	const global = 0.35
	for _, tc := range []struct {
		name string
		rec  JSONRecord
		want float64
	}{
		// 3 reps spanning 980..1020 around 1000: spread 4%, 1.5x = 6%,
		// clamped up to global/2.
		{"tight spread clamps to half the knob", rateRec("m", 1000, 3, 980, 1020), global / 2},
		// Spread 20%: 1.5x = 30%, inside the clamp band — used as-is.
		{"moderate spread used directly", rateRec("m", 1000, 3, 900, 1100), 0.30},
		// Spread 100%: 1.5x = 150%, clamped down to 2x the knob.
		{"wide spread clamps to twice the knob", rateRec("m", 1000, 5, 500, 1500), 2 * global},
		// Legacy single-run baselines carry no spread.
		{"single run falls back", rateRec("m", 1000, 0, 0, 0), global},
		{"one rep falls back", rateRec("m", 1000, 1, 1000, 1000), global},
		// Malformed spreads must not produce a bogus tolerance.
		{"zero min falls back", rateRec("m", 1000, 3, 0, 1100), global},
		{"inverted bounds fall back", rateRec("m", 1000, 3, 1100, 900), global},
		{"zero value falls back", rateRec("m", 0, 3, 900, 1100), global},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := perMetricTolerance(tc.rec, global)
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("perMetricTolerance = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestCompareJSONSpreadTolerance drives the gate end to end over the three
// baseline shapes: a tight-spread metric catches a drop the global knob
// would wave through, a wide-spread metric tolerates a drop the global knob
// would flag, and a legacy record behaves exactly as before.
func TestCompareJSONSpreadTolerance(t *testing.T) {
	const global = 0.35
	fresh := func(metric string, value float64) []JSONRecord {
		r := rateRec(metric, value, 0, 0, 0)
		return []JSONRecord{r}
	}
	for _, tc := range []struct {
		name     string
		base     JSONRecord
		value    float64 // fresh value
		wantRegs int
	}{
		// Tight spread -> tolerance global/2 = 17.5%: a 25% drop fails
		// even though it is inside the 35% global knob...
		{"tight spread catches a quiet regression", rateRec("m", 1000, 3, 990, 1010), 750, 1},
		// ...and a 10% drop still passes.
		{"tight spread passes normal noise", rateRec("m", 1000, 3, 990, 1010), 900, 0},
		// Wide spread -> tolerance 2*global = 70%: a 50% drop is within
		// this metric's own observed variance.
		{"wide spread tolerates known noise", rateRec("m", 1000, 5, 500, 1500), 500, 0},
		{"wide spread still has a floor", rateRec("m", 1000, 5, 500, 1500), 250, 1},
		// Legacy single-run baseline: the global knob verbatim.
		{"legacy record passes at the knob", rateRec("m", 1000, 0, 0, 0), 700, 0},
		{"legacy record fails past the knob", rateRec("m", 1000, 0, 0, 0), 600, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			regs := CompareJSON([]JSONRecord{tc.base}, fresh("m", tc.value), global)
			if len(regs) != tc.wantRegs {
				t.Fatalf("regressions = %v, want %d", regs, tc.wantRegs)
			}
			if tc.wantRegs == 1 && !strings.Contains(regs[0], "tolerance") {
				t.Errorf("regression message %q does not name the tolerance", regs[0])
			}
		})
	}

	// A merged baseline gating a merged fresh run (the CI shape): the
	// per-metric floor applies to the fresh mean.
	base := []JSONRecord{rateRec("a", 1000, 3, 950, 1050), rateRec("b", 2000, 3, 1900, 2100)}
	ok := []JSONRecord{rateRec("a", 900, 3, 880, 920), rateRec("b", 1850, 3, 1800, 1900)}
	if regs := CompareJSON(base, ok, global); len(regs) != 0 {
		t.Errorf("merged-vs-merged flagged %v", regs)
	}
}

// TestBestBaseline pins the trend-aware fold: per metric the best rate
// across committed + history wins (with its spread metadata), non-rate
// records keep the committed value, and history-only metrics join the gate.
func TestBestBaseline(t *testing.T) {
	committed := []JSONRecord{
		rateRec("slow_day", 800, 3, 780, 820),
		{Figure: "fanout", Config: "16subs", Metric: "ratio_m", Value: 5, Unit: "ratio"},
	}
	older := []JSONRecord{
		rateRec("slow_day", 1000, 5, 950, 1050),
		{Figure: "fanout", Config: "16subs", Metric: "ratio_m", Value: 9, Unit: "ratio"},
	}
	newer := []JSONRecord{
		rateRec("slow_day", 900, 2, 890, 910),
		rateRec("history_only", 400, 1, 400, 400),
	}
	got := BestBaseline(committed, older, newer)
	byMetric := map[string]JSONRecord{}
	for _, r := range got {
		byMetric[r.Metric] = r
	}
	if len(got) != 3 {
		t.Fatalf("BestBaseline folded to %d records, want 3: %+v", len(got), got)
	}
	// The best historical rate wins, carrying its own spread.
	if r := byMetric["slow_day"]; r.Value != 1000 || r.Reps != 5 || r.Min != 950 {
		t.Errorf("slow_day = %+v, want the 1000-value history record with its spread", r)
	}
	// Non-rates never race: committed value stands even when history is higher.
	if r := byMetric["ratio_m"]; r.Value != 5 {
		t.Errorf("ratio_m = %+v, want the committed value 5", r)
	}
	// A metric only history has still joins the baseline.
	if r, ok := byMetric["history_only"]; !ok || r.Value != 400 {
		t.Errorf("history_only = %+v, want 400", r)
	}
	// Committed-first order is stable.
	if got[0].Metric != "slow_day" || got[1].Metric != "ratio_m" {
		t.Errorf("order not preserved: %v, %v", got[0].Metric, got[1].Metric)
	}
}

func TestJSONRoundTripAndCompare(t *testing.T) {
	recs := append(
		MeshRecords([]MeshRow{{Brokers: 2, Subscribers: 4, EventsPerSec: 1000, CPUPerEventNs: 12}}),
		FanoutRecords([]FanoutRow{{Subscribers: 16, BinEventsPerSec: 5000, BinCPUPerEventNs: 10,
			XMLEventsPerSec: 4000, XMLCPUPerEventNs: 12}})...,
	)
	for _, r := range recs {
		if r.GoVersion == "" {
			t.Errorf("record %s missing go_version", r.key())
		}
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteJSONFile(path, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) || back[0] != recs[0] {
		t.Fatalf("round trip mismatch: %d records, first %+v vs %+v", len(back), back[0], recs[0])
	}

	// Identical runs never regress.
	if regs := CompareJSON(recs, back, 0.35); len(regs) != 0 {
		t.Errorf("self-comparison regressed: %v", regs)
	}

	// A 50% throughput drop on one rate metric is a regression; the same
	// drop on a time metric, or a baseline row absent from the fresh run,
	// is not.
	fresh := make([]JSONRecord, len(recs))
	copy(fresh, recs)
	for i := range fresh {
		if fresh[i].Figure == "mesh" && fresh[i].Metric == "events" {
			fresh[i].Value /= 2
		}
		if fresh[i].Metric == "pbio_cpu_per_event" {
			fresh[i].Value *= 10 // worse, but not a rate — ignored
		}
	}
	regs := CompareJSON(recs, fresh, 0.35)
	if len(regs) != 1 || !strings.HasPrefix(regs[0], "mesh/") {
		t.Errorf("regressions = %v, want exactly the mesh events drop", regs)
	}
	if regs := CompareJSON(recs, fresh[:0], 0.35); len(regs) != 0 {
		t.Errorf("empty fresh run should gate nothing, got %v", regs)
	}

	// Within tolerance passes.
	within := make([]JSONRecord, len(recs))
	copy(within, recs)
	for i := range within {
		within[i].Value *= 0.70
	}
	if regs := CompareJSON(recs, within, 0.35); len(regs) != 0 {
		t.Errorf("30%% drop inside 35%% tolerance flagged: %v", regs)
	}
}
