package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// JSONRecord is one benchmark data point in the machine-readable output
// (the BENCH_7.json schema).  Figure/Config/Metric triple identifies the
// point across runs; GoVersion and GoMaxProcs record the environment so a
// regression gate can refuse to compare numbers from different worlds.
type JSONRecord struct {
	Figure     string  `json:"figure"`
	Config     string  `json:"config"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	GoVersion  string  `json:"go_version"`
	GoMaxProcs int     `json:"gomaxprocs"`
	// Reps, Min, and Max are stamped by MergeRecords when a run repeats
	// each figure (xmitbench -count): Value becomes the mean over the
	// repetitions and Min/Max bound the observed spread, so a baseline
	// carries its own variance and a gate reading it can tell a real
	// regression from run-to-run noise.  Absent (zero) for single runs.
	Reps int     `json:"reps,omitempty"`
	Min  float64 `json:"min,omitempty"`
	Max  float64 `json:"max,omitempty"`
}

// key is the identity a record keeps across runs.
func (r JSONRecord) key() string { return r.Figure + "|" + r.Config + "|" + r.Metric }

// isRate reports whether the record measures throughput (higher is
// better).  The regression gate compares only rates: time-per-op metrics
// are the same information inverted, and comparing both would double-count
// every regression.
func (r JSONRecord) isRate() bool { return strings.HasSuffix(r.Unit, "/s") }

// record stamps the environment onto one data point.
func record(figure, config, metric string, value float64, unit string) JSONRecord {
	return JSONRecord{
		Figure: figure, Config: config, Metric: metric, Value: value, Unit: unit,
		GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0),
	}
}

// Fig8Records flattens the encode figure: per-mechanism encode times, the
// report-only memcpy floor (a time, not a rate, so it never gates), and
// the PBIO rate the regression gate watches.
func Fig8Records(rows []Fig8Row) []JSONRecord {
	var out []JSONRecord
	for _, r := range rows {
		cfg := fmt.Sprintf("%dB", r.PayloadBytes)
		out = append(out,
			record("8", cfg, "memcpy_encode", r.MemcpyNs, "ns/op"),
			record("8", cfg, "pbio_encode", r.PBIONs, "ns/op"),
			record("8", cfg, "mpi_encode", r.MPINs, "ns/op"),
			record("8", cfg, "cdr_encode", r.CDRNs, "ns/op"),
			record("8", cfg, "xdr_encode", r.XDRNs, "ns/op"),
			record("8", cfg, "xml_encode", r.XMLNs, "ns/op"),
			record("8", cfg, "pbio_encode_rate", 1e9/r.PBIONs, "msg/s"),
		)
	}
	return out
}

// FanoutRecords flattens the fan-out figure.
func FanoutRecords(rows []FanoutRow) []JSONRecord {
	var out []JSONRecord
	for _, r := range rows {
		cfg := fmt.Sprintf("%dsubs", r.Subscribers)
		out = append(out,
			record("fanout", cfg, "pbio_events", r.BinEventsPerSec, "events/s"),
			record("fanout", cfg, "pbio_cpu_per_event", r.BinCPUPerEventNs, "ns/event"),
			record("fanout", cfg, "xml_events", r.XMLEventsPerSec, "events/s"),
			record("fanout", cfg, "xml_cpu_per_event", r.XMLCPUPerEventNs, "ns/event"),
		)
	}
	return out
}

// MeshRecords flattens the broker-federation figure.
func MeshRecords(rows []MeshRow) []JSONRecord {
	var out []JSONRecord
	for _, r := range rows {
		cfg := fmt.Sprintf("%dbrokers_%dsubs", r.Brokers, r.Subscribers)
		out = append(out,
			record("mesh", cfg, "events", r.EventsPerSec, "events/s"),
			record("mesh", cfg, "cpu_per_event", r.CPUPerEventNs, "ns/event"),
		)
	}
	return out
}

// WriteJSONFile writes records to path as an indented JSON array.
func WriteJSONFile(path string, recs []JSONRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSON(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteJSON writes records to w as an indented JSON array.
func WriteJSON(w io.Writer, recs []JSONRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// ReadJSONFile loads a record array written by WriteJSONFile.
func ReadJSONFile(path string) ([]JSONRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []JSONRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return recs, nil
}

// MergeRecords folds the record sets of repeated runs into one: records
// are matched by Figure/Config/Metric identity, Value becomes the mean,
// and Reps/Min/Max record the spread.  Records missing from some runs are
// merged over the runs that produced them.
func MergeRecords(runs [][]JSONRecord) []JSONRecord {
	if len(runs) == 1 {
		return runs[0]
	}
	var order []string
	acc := make(map[string]*JSONRecord)
	for _, recs := range runs {
		for _, r := range recs {
			k := r.key()
			m, ok := acc[k]
			if !ok {
				c := r
				c.Reps, c.Min, c.Max = 1, r.Value, r.Value
				acc[k] = &c
				order = append(order, k)
				continue
			}
			m.Value += r.Value
			m.Reps++
			m.Min = math.Min(m.Min, r.Value)
			m.Max = math.Max(m.Max, r.Value)
		}
	}
	out := make([]JSONRecord, 0, len(order))
	for _, k := range order {
		m := acc[k]
		m.Value /= float64(m.Reps)
		out = append(out, *m)
	}
	return out
}

// RecordFigures names every figure that contributes JSON records — the
// expansion of "all" for RequireFigures.
var RecordFigures = []string{"8", "fanout", "mesh", "writev", "evolve", "evolve-mesh", "coldstart"}

// RequireFigures closes the vacuous-pass hole in the regression gate:
// CompareJSON deliberately ignores baseline entries the fresh run didn't
// produce (so a full baseline can gate a partial rerun), which also means a
// requested figure that silently emits zero records passes every gate.  It
// returns one message per requested figure name that contributed no fresh
// records.  Names that never produce records (figure 1, "expansion", ...)
// are not required; "all" expands to RecordFigures.
func RequireFigures(figs []string, fresh []JSONRecord) []string {
	have := make(map[string]bool, len(fresh))
	for _, r := range fresh {
		have[r.Figure] = true
	}
	produces := make(map[string]bool, len(RecordFigures))
	for _, f := range RecordFigures {
		produces[f] = true
	}
	var missing []string
	seen := make(map[string]bool)
	check := func(f string) {
		if produces[f] && !have[f] && !seen[f] {
			seen[f] = true
			missing = append(missing, fmt.Sprintf("figure %q produced no records", f))
		}
	}
	for _, f := range figs {
		f = strings.TrimSpace(f)
		if f == "all" {
			for _, rf := range RecordFigures {
				check(rf)
			}
			continue
		}
		check(f)
	}
	return missing
}

// perMetricTolerance derives the tolerance for one baseline record from
// its own recorded spread.  A baseline merged from repeated runs (Reps >=
// 2, see MergeRecords) knows how noisy each metric is: the relative spread
// (Max-Min)/Value, widened by half again for spans the repetitions did not
// happen to visit, becomes that metric's tolerance — clamped to
// [global/2, 2*global] so a freakishly steady metric cannot turn the gate
// hair-triggered and a wild one cannot disable it.  Legacy records
// (single-run baselines, or any with an unusable spread) fall back to the
// global knob unchanged.
func perMetricTolerance(base JSONRecord, global float64) float64 {
	if base.Reps < 2 || base.Value <= 0 || base.Min <= 0 || base.Max < base.Min {
		return global
	}
	tol := 1.5 * (base.Max - base.Min) / base.Value
	if lo := global / 2; tol < lo {
		return lo
	}
	if hi := 2 * global; tol > hi {
		return hi
	}
	return tol
}

// BestBaseline folds a committed baseline and a window of prior runs into
// one trend-aware baseline: per metric, the record with the highest Value
// wins.  This is the anti-ratchet for the regression gate — a committed
// baseline recorded on a slow day lets real regressions hide beneath it,
// but the best recent run keeps the floor honest.  Records from history
// runs that the committed baseline lacks are included too (a new metric
// starts gating as soon as one run has produced it); spread metadata
// (Reps/Min/Max) rides along with whichever record wins, so per-metric
// tolerances still derive from an actually observed run.
func BestBaseline(committed []JSONRecord, history ...[]JSONRecord) []JSONRecord {
	var order []string
	best := make(map[string]JSONRecord)
	take := func(recs []JSONRecord) {
		for _, r := range recs {
			k := r.key()
			cur, ok := best[k]
			if !ok {
				best[k] = r
				order = append(order, k)
				continue
			}
			// Only rates race upward; the gate ignores everything else,
			// so non-rate records keep their first (committed) value.
			if r.isRate() && r.Value > cur.Value {
				best[k] = r
			}
		}
	}
	take(committed)
	for _, h := range history {
		take(h)
	}
	out := make([]JSONRecord, 0, len(order))
	for _, k := range order {
		out = append(out, best[k])
	}
	return out
}

// CompareJSON checks fresh throughput numbers against a baseline and
// returns one message per regression: a rate metric present in both sets
// whose fresh value fell more than the tolerated fraction below the
// baseline.  tolerance is the global knob (0.35 means anything above a 35%
// drop fails); a baseline recorded with repetitions carries per-metric
// spread (Reps/Min/Max) from which each metric derives its own tolerance
// around that knob (see perMetricTolerance), so steady metrics gate tighter
// than noisy ones.  Time-per-op metrics and baseline entries the fresh run
// didn't produce (figures not re-run) are ignored, so a full baseline can
// gate a partial rerun.
func CompareJSON(baseline, fresh []JSONRecord, tolerance float64) []string {
	got := make(map[string]JSONRecord, len(fresh))
	for _, r := range fresh {
		got[r.key()] = r
	}
	var regressions []string
	for _, base := range baseline {
		if !base.isRate() || base.Value <= 0 {
			continue
		}
		cur, ok := got[base.key()]
		if !ok {
			continue
		}
		tol := perMetricTolerance(base, tolerance)
		floor := base.Value * (1 - tol)
		if cur.Value < floor {
			regressions = append(regressions,
				fmt.Sprintf("%s/%s %s: %.0f %s, %.1f%% below baseline %.0f (floor %.0f, tolerance %.0f%%)",
					base.Figure, base.Config, base.Metric, cur.Value, cur.Unit,
					100*(1-cur.Value/base.Value), base.Value, floor, 100*tol))
		}
	}
	return regressions
}
