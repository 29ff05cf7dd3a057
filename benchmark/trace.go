package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// span is one traced interval.  Spans of one operation share Event (the
// event's seq, or the join/restart number); Parent is the ID of the span
// that caused this one, 0 for an operation's root span.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Event  uint64 `json:"event"`
}

// tracer holds spans in memory until the run ends.  It is filled by one
// goroutine after the traced windows, from timestamps they recorded.  Spans
// keep the harness clock's raw nanoseconds; speed is the host speed (see
// speed.go) while the operation being added ran, which durations divides by.
type tracer struct {
	spans  []span
	speed  float64   // of the operation whose spans are being added
	speeds []float64 // per span
}

// add records a span and returns its ID.  A child is cut to its parent's
// interval: a sibling measurement of a nested call (see README, "Reading the
// trace") can come out a little longer than the call it stands for.  An
// interval measured backwards (the stage ended before the previous one
// reported, which concurrent stages can do) is recorded as empty at its start
// rather than with a negative duration.
func (t *tracer) add(name string, start, end int64, parent int, event uint64) int {
	if parent != 0 {
		p := t.spans[parent-1]
		start, end = min(max(start, p.Start), p.End), min(end, p.End)
	}
	if end < start {
		end = start
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent, Event: event})
	t.speeds = append(t.speeds, t.speed)
	return id
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// that its children cover (children are clipped to the parent and
// overlapping children are counted once).
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ s, e int64 }
	kids := map[int][]iv{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids[s.Parent] = append(kids[s.Parent], iv{a, b})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
		var covered, end int64
		end = s.Start
		for _, v := range ivs {
			if v.e <= end {
				continue
			}
			covered += v.e - max(v.s, end)
			end = v.e
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// layerOf maps a span name to the layer it bills: the part before the first
// dot ("echan.queue_wait" -> "echan").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// shareRow is one line of the stacked table.
type shareRow struct {
	Name  string
	Share float64 // self time as a fraction of all root spans' time
	P50   float64 // median span duration, ns
	Count int
}

// typicalShare is the part of the traced operations the stacked table is
// built from: the fastest nine tenths of each kind.  One generator stall of
// 50 ms is as long as a thousand ordinary events, and a table of sums that
// included it would show where the host stalled, not where an event's time
// goes; the slow tenth is reported by tail.latency_*.
const typicalShare = 0.9

// typicalRoots returns the IDs of the root spans whose duration is within
// the typicalShare quantile of their kind (root spans of one name).
func typicalRoots(spans []span) map[int]bool {
	durs := map[string][]float64{}
	for _, s := range spans {
		if s.Parent == 0 {
			durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
		}
	}
	limit := map[string]float64{}
	for name, d := range durs {
		sort.Float64s(d)
		limit[name] = percentile(d, typicalShare)
	}
	keep := map[int]bool{}
	for _, s := range spans {
		if s.Parent == 0 && float64(s.End-s.Start) <= limit[s.Name] {
			keep[s.ID] = true
		}
	}
	return keep
}

// shares computes each span name's self time as a share of end-to-end time
// (the sum of root spans) over the typical operations, plus the per-layer
// rollup.  The root's own self time — the part of an operation no span
// covers — appears under the root's name.
func shares(spans []span) (rows []shareRow, layers map[string]float64) {
	self := selfTimes(spans)
	keep := typicalRoots(spans)
	rootOf := map[int]int{} // parents are recorded before their children
	var total int64
	sum := map[string]int64{}
	durs := map[string][]float64{}
	for _, s := range spans {
		if s.Parent == 0 {
			rootOf[s.ID] = s.ID
		} else {
			rootOf[s.ID] = rootOf[s.Parent]
		}
		if !keep[rootOf[s.ID]] {
			continue
		}
		if s.Parent == 0 {
			total += s.End - s.Start
		}
		sum[s.Name] += self[s.ID]
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
	}
	layers = map[string]float64{}
	if total == 0 {
		return nil, layers
	}
	for name, ns := range sum {
		sh := float64(ns) / float64(total)
		rows = append(rows, shareRow{Name: name, Share: sh, P50: median(durs[name]), Count: len(durs[name])})
		layers[layerOf(name)] += sh
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Share != rows[j].Share {
			return rows[i].Share > rows[j].Share
		}
		return rows[i].Name < rows[j].Name
	})
	return rows, layers
}

// durations returns the durations of every span with the given name, in ns
// at the reference speed.
func (t *tracer) durations(name string) []int64 {
	var out []int64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, atSpeed(s.End-s.Start, t.speeds[i]))
		}
	}
	return out
}

// atSpeed expresses ns measured at the given host speed at the reference
// speed; a speed of 0 is "not measured" and leaves ns as it is.
func atSpeed(ns int64, speed float64) int64 {
	if speed <= 0 {
		return ns
	}
	return int64(float64(ns) / speed)
}

// printShares renders the stacked self-time table, one per kind of traced
// operation (a workload that traces both restarts and joins gets two).
func printShares(w io.Writer, workload string, spans []span) {
	rootOf := map[int]string{}
	var kinds []string
	for _, s := range spans {
		if s.Parent == 0 {
			if !slices.Contains(kinds, s.Name) {
				kinds = append(kinds, s.Name)
			}
			rootOf[s.ID] = s.Name
		} else {
			rootOf[s.ID] = rootOf[s.Parent] // parents are recorded before their children
		}
	}
	for _, kind := range kinds {
		var sub []span
		for _, s := range spans {
			if rootOf[s.ID] == kind {
				sub = append(sub, s)
			}
		}
		rows, layers := shares(sub)
		fmt.Fprintf(w, "trace %s: self time per span as a share of one %s's end-to-end time (fastest %.0f %% of traced %ss)\n", workload, kind, 100*typicalShare, kind)
		fmt.Fprintf(w, "  %-28s %8s %12s %8s\n", "span", "share", "p50 ns", "count")
		for _, r := range rows {
			fmt.Fprintf(w, "  %-28s %7.1f%% %12.0f %8d\n", r.Name, 100*r.Share, r.P50, r.Count)
		}
		names := make([]string, 0, len(layers))
		for l := range layers {
			names = append(names, l)
		}
		sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
		fmt.Fprintf(w, "  by layer:")
		for _, l := range names {
			fmt.Fprintf(w, " %s %.1f%%", l, 100*layers[l])
		}
		fmt.Fprintln(w)
	}
}

// writeTrace writes the spans as JSON lines to dir/trace-<workload>.jsonl.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
