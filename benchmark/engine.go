package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"
)

// sizing holds what the self-tests shrink so that every workload runs end to
// end in a fraction of a second.  The benchmark proper never changes it.
var sizing = struct {
	window time.Duration // length of one measurement window; a slice is a tenth of it
	// A run builds its topology setupRepeats times, and goes on building
	// (up to setupMax times) until setupBudget has been spent, so that a
	// set-up of a few milliseconds is repeated often enough for its median
	// to be steady.  setup_s is the median; the last build is measured.
	setupRepeats, setupMax int
	setupBudget            time.Duration
	warmDivisor            int // warm-up operations are divided by this
	// catalogue is the number of one-version lineages metadata_cold seeds
	// beside `metric`.  Registry replay is quadratic in it at this commit
	// (0.8 s per restart at 4000, 0.2 s at 2000); 2000 is what lets ten
	// restarts and seven set-ups fit the run-time cap, and still leaves
	// replay four fifths of a restart.
	catalogue   int
	minRestarts int
}{window: time.Second, setupRepeats: 7, setupMax: 101, setupBudget: time.Second, warmDivisor: 1, catalogue: 2000, minRestarts: 10}

const (
	// slicesPerWindow cuts each window into the slices the quiet-slice
	// statistics are taken over.
	slicesPerWindow = 10
	// burstSize is the number of events in flight in a burst window.
	burstSize = 64
	// drainTimeout bounds the wait for outstanding deliveries.
	drainTimeout = 15 * time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Workload  string
	Metrics   map[string]metric
	Attempted int64
	Failed    int64
	Fails     string // breakdown of Failed
	Notes     []string
	Spans     []span
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// windowKind is what one window of a run measures.
type windowKind int

const (
	burstWindow       windowKind = iota // burstSize events in flight, tracing off
	burstTracedWindow                   // the same with tracing on (traced pass only)
	pingWindow                          // one event in flight; traced in the traced pass
)

// phasePlan lays a run's measured seconds out as whole windows, burst and
// ping windows interleaved.  The recording host has episodes of ten seconds
// and more in which everything runs slower in ways the speedometer does not
// see; with all windows of one kind in a row such an episode could swallow
// them all, and then no statistic over their slices could see past it.
// Interleaved, every metric samples the whole run.
//
// Untraced runs give the burst windows 9 in 16: their slice rates wander
// more than the ping windows' latencies do.  Traced runs repeat
// burst, burst traced, ping, ping: the burst pair gives
// trace.overhead_ratio, the traced ping windows give the spans.
func phasePlan(seconds int, traced bool) []windowKind {
	plan := make([]windowKind, max(seconds, 2))
	if traced {
		cycle := []windowKind{burstWindow, burstTracedWindow, pingWindow, pingWindow}
		for i := range plan {
			plan[i] = cycle[i%len(cycle)]
		}
		if len(plan) < len(cycle) {
			plan = cycle[:3]
		}
		return plan
	}
	n := len(plan)
	bursts := min(max(int(math.Round(float64(n)*9/16)), 1), n-1)
	for i := range plan {
		plan[i] = pingWindow
		if (i+1)*bursts/n > i*bursts/n {
			plan[i] = burstWindow
		}
	}
	return plan
}

// count is the number of windows of one kind in a plan.
func count(plan []windowKind, kind windowKind) int {
	n := 0
	for _, k := range plan {
		if k == kind {
			n++
		}
	}
	return n
}

// errStalled reports deliveries still outstanding drainTimeout after they
// should have arrived.
var errStalled = errors.New("deliveries outstanding after the drain timeout")

// guard arms the stall alarm: a burst still waiting for its deliveries d from
// now fails with errStalled.  The returned function disarms it.
func (h *harness) guard(d time.Duration) (disarm func()) {
	stalled := make(chan struct{})
	h.stalled = stalled
	t := time.AfterFunc(d, func() { close(stalled) })
	return func() { t.Stop() }
}

// burst publishes k events back to back and waits until every subscriber
// has verified the last of them.  It returns the time from the generator
// turning to the burst until the last subscriber verified its last event:
// with k = 1, one event's end-to-end latency.
func (h *harness) burst(topo *topology, k int, ps *phaseState) (n, latNs int64, err error) {
	t0 := nowNs()
	h.waitLeft.Store(int32(len(h.recvs)))
	h.waitSeq.Store(h.nextSeq + uint64(k))
	for i := 0; i < k; i++ {
		tr := ps.traceOf(h.nextSeq)
		if tr != nil {
			tr.seq, tr.due = h.nextSeq, t0
		}
		if err := topo.publish(h.nextSeq, tr); err != nil {
			return 0, 0, err
		}
		h.nextSeq++
	}
	if ps != nil && k > 1 {
		h.depths = append(h.depths, topo.stats())
	}
	select {
	case <-h.doneCh:
	case <-h.stalled:
		return 0, 0, errStalled
	}
	lat := h.doneAt - t0
	if k == 1 && lat > latencyLimitNs {
		h.fails.overLimit.Add(1)
	}
	return int64(k), lat, nil
}

// windowResult is one data-plane window.
type windowResult struct {
	slices  []sliceStat
	ps      *phaseState // traced windows
	blocked int64       // publisher block waits
	allocs  uint64      // heap allocations (traced pass)
}

// runWindow keeps k events in flight for one window: the generator publishes
// k events, waits until every subscriber has verified them all, and publishes
// the next k.  With k = 1 each event's latency is kept.
func runWindow(h *harness, topo *topology, k int, traced, keepTraces bool) (windowResult, error) {
	var w windowResult
	if traced {
		w.ps = newPhaseState(h, keepTraces)
	}
	h.phase.Store(w.ps)
	defer h.phase.Store(nil)
	defer h.guard(sizing.window + drainTimeout)()

	blocked0 := topo.stats().blockWaits
	var ms0, ms1 runtime.MemStats
	if h.tracing {
		runtime.ReadMemStats(&ms0)
	}
	var err error
	w.slices, err = measure(sizing.window, sizing.window/slicesPerWindow, 0, k == 1, func() (int64, int64, error) {
		return h.burst(topo, k, w.ps)
	})
	if h.tracing {
		runtime.ReadMemStats(&ms1)
		w.allocs = ms1.Mallocs - ms0.Mallocs
	}
	w.blocked = topo.stats().blockWaits - blocked0
	return w, err
}

// slicesOf flattens windows into their slices.
func slicesOf(ws []windowResult) []sliceStat {
	var out []sliceStat
	for _, w := range ws {
		out = append(out, w.slices...)
	}
	return out
}

// rates and cpuPerOp turn slices into the per-slice values the quiet-slice
// statistics are taken over, at the reference speed.
func rates(slices []sliceStat) []float64 {
	out := make([]float64, 0, len(slices))
	for i := range slices {
		if slices[i].ops > 0 {
			out = append(out, slices[i].rate())
		}
	}
	return out
}

func cpuPerOp(slices []sliceStat, part func(*sliceStat) int64) []float64 {
	out := make([]float64, 0, len(slices))
	for i := range slices {
		if s := &slices[i]; s.ops > 0 {
			out = append(out, float64(part(s))/1e3/float64(s.ops)/s.speed)
		}
	}
	return out
}

func totalCPU(s *sliceStat) int64 { return s.userNs + s.sysNs }

func opsIn(slices []sliceStat) (n int64) {
	for i := range slices {
		n += slices[i].ops
	}
	return n
}

// latencySummary is what a run's ping windows reduce to.  All latencies are
// at the reference speed.
type latencySummary struct {
	p50     float64 // quiet-slice p50: the favourable decile of per-slice medians
	p50All  float64 // median over every operation
	tailP99 float64 // median of per-window p99s, windows merged until ten samples lie beyond
	tailP90 float64
	beyond  int // fewest samples any tail window had beyond its p99
	slices  int
	windows int // tail windows
	samples int
	slowest float64
}

// summarizeLatency reduces ping windows (one slice list per window) to the
// reported numbers.
func summarizeLatency(windows [][]sliceStat) latencySummary {
	var s latencySummary
	var medians, all []float64
	perWindow := make([][]float64, len(windows))
	for i, w := range windows {
		for j := range w {
			lat := w[j].latenciesUs()
			if len(lat) == 0 {
				continue
			}
			medians = append(medians, median(lat))
			perWindow[i] = append(perWindow[i], lat...)
		}
		all = append(all, perWindow[i]...)
	}
	s.slices, s.p50, s.p50All, s.samples = len(medians), favourable(medians, false), median(all), len(all)
	for _, v := range all {
		s.slowest = max(s.slowest, v)
	}
	tails := summarizeTails(groupForTail(perWindow, 0.99))
	s.windows = len(tails)
	s.tailP90, s.tailP99, s.beyond = tailMedians(tails)
	return s
}

func (s latencySummary) note(res *result, what string, pingWindows int) {
	res.notef("ping windows: %d %s timed one at a time in %d windows; p50 is the lower decile of %d slice medians (median over all %.2f us)",
		s.samples, what, pingWindows, s.slices, s.p50All)
	res.notef("ping tail: %d tail windows, >=%d samples beyond p99 in each; slowest of the %s took %.0f us",
		s.windows, s.beyond, what, s.slowest)
	if s.beyond < minBeyond {
		res.notef("WARNING: a tail window has only %d samples beyond its p99", s.beyond)
	}
}

// setupTopology builds the workload sizing.setupRepeats times and returns
// the last build, warmed up, with the median set-up time: workload start
// (brokers, schema discovery, binding, dials) until the first event has been
// verified by every subscriber, at the reference speed.  The bulk warm-up
// that follows on the build that is measured fills caches and pools and is
// not part of setup_s: it is a fixed number of events, so timing it would
// only repeat ops_per_s, noise included.
func setupTopology(wl *workload, seed int64, traced bool, res *result) (*harness, *topology, float64, error) {
	var times []float64
	for first := nowNs(); ; {
		t0 := nowNs()
		last := lastSetup(len(times)+1, t0-first)
		h := newHarness(seed, traced)
		topo, err := wl.build(h, newPayloads(h.rng))
		if err != nil {
			return nil, nil, 0, describe(wl.name, err)
		}
		disarm := h.guard(drainTimeout)
		_, _, err = h.burst(topo, 1, nil) // set-up ends with the first event verified by every subscriber
		disarm()
		t1 := nowNs()
		times = append(times, float64(t1-t0)/1e9/speedAt(t0, t1))
		for k := 1; err == nil && last && k < wl.warm/sizing.warmDivisor; k++ {
			err = topo.publish(h.nextSeq, nil)
			h.nextSeq++
		}
		if err != nil {
			topo.close()
			return nil, nil, 0, describe(wl.name+" warm-up", err)
		}
		h.drain(drainTimeout)
		if last {
			res.notef("%d set-ups, quartiles %s s", len(times), fmtFloats(quartiles(times), 4))
			return h, topo, median(times), nil
		}
		topo.close()
		res.Attempted += h.attempted()
		res.Failed += h.fails.total()
	}
}

func newHarness(seed int64, traced bool) *harness {
	return &harness{seed: seed, rng: rand.New(rand.NewSource(seed)), tracing: traced, doneCh: make(chan struct{}, 1)}
}

// lastSetup reports whether the n-th set-up, begun `spent` ns after the
// first, is the one to keep.
func lastSetup(n int, spent int64) bool {
	return n >= sizing.setupMax || (n >= sizing.setupRepeats && spent >= int64(sizing.setupBudget))
}

// runDataPlane runs one data-plane workload: set-up, then burst and ping
// windows interleaved, and — in the traced pass — the span and counter
// collection.
func runDataPlane(wl *workload, seed int64, seconds int, traced bool) (*result, error) {
	res := &result{Workload: wl.name, Metrics: map[string]metric{}}
	h, topo, setupS, err := setupTopology(wl, seed, traced, res)
	if err != nil {
		return nil, err
	}
	defer topo.close()

	var bursts, burstsTraced, pings []windowResult
	for _, kind := range phasePlan(seconds, traced) {
		k := burstSize
		if kind == pingWindow {
			k = 1
		}
		w, err := runWindow(h, topo, k, traced && kind != burstWindow, kind == pingWindow)
		if err != nil {
			return nil, describe(wl.name, err)
		}
		switch kind {
		case pingWindow:
			pings = append(pings, w)
		case burstTracedWindow:
			burstsTraced = append(burstsTraced, w)
		default:
			bursts = append(bursts, w)
		}
	}
	goroutines := runtime.NumGoroutine()

	pingSlices := make([][]sliceStat, len(pings))
	for i, w := range pings {
		pingSlices[i] = w.slices
	}
	lat := summarizeLatency(pingSlices)
	bs := slicesOf(bursts)
	res.notef("burst windows: %d events, %d in flight, in %d slices; ops_per_s is the upper decile of slice rates (median %.0f), cpu_us_per_op the lower decile (median %.3f)",
		opsIn(bs), burstSize, len(bs), median(rates(bs)), median(cpuPerOp(bs, totalCPU)))
	lat.note(res, "events", len(pings))

	if !traced {
		res.set("setup_s", setupS)
		res.set("ops_per_s", favourable(rates(bs), true))
		res.set("cpu_us_per_op", favourable(cpuPerOp(bs, totalCPU), false))
		res.set("latency_p50_us", lat.p50)
	} else {
		fillZeroLayers(res)
		fillDataPlaneLayers(res, h, wl, topo, bursts, burstsTraced, pings)
		fillProcessLayers(res, lat, goroutines)
	}
	res.Attempted += h.attempted()
	res.Failed += h.fails.total()
	res.Fails = h.fails.String()
	return res, nil
}

func fmtFloats(xs []float64, prec int) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.*f", prec, x)
	}
	return s + "]"
}
