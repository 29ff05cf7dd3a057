package main

import (
	"context"
	"crypto/sha256"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/open-metadata/xmit/internal/core"
	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/dom"
	"github.com/open-metadata/xmit/internal/echan"
	"github.com/open-metadata/xmit/internal/fmtserver"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/registry"
	"github.com/open-metadata/xmit/internal/store"
)

const (
	metricSteps    = 16
	backgroundRate = 5000 // events/s streamed while joins and restarts run
	// joinsPerWindow bounds the cold joins of one ping window; the rest of
	// the window goes to restarts.  A join opens two TCP connections, and
	// back to back a second of joins leaves 7 000 of them in TIME_WAIT:
	// after a few runs half of the 28 000 ephemeral ports were taken and
	// connect(2), searching for a free one, had become a fifth to a half of
	// a join and as unsteady as the table was full (spread 24 %).
	joinsPerWindow   = 300
	telemetryChannel = "telemetry"
)

// liveBroker is a broker recovered from the store and serving on loopback.
type liveBroker struct {
	st     *store.Store
	broker *echan.Broker
	srv    *echan.Server
	addr   string
}

func (b *liveBroker) close() {
	b.srv.Close()
	b.broker.Close()
	b.st.Close()
}

// restartStamps are the boundaries of one restart, in harness-clock ns.
type restartStamps struct {
	start, opened, recovered, warmed, listening, answered int64
}

// joinStamps are the boundaries of one cold join.  The *Ns fields are
// sibling measurements taken only on traced joins.
type joinStamps struct {
	start                            int64
	loaded, registered, bound        int64
	dialed, firstEvent, decoded, end int64
	fetchColdNs, fetchCachedNs       int64
	parseNs, nativeNs                int64
	traced                           bool
}

// seededStore is what a seeding process left on disk before it was killed,
// and what a recovery must bring back.
type seededStore struct {
	dir     string
	schema  string            // the XML Schema document components discover
	docHash [sha256.Size]byte // full lineage document at the moment of the kill
	metric  []meta.FormatID   // expected LINEAGE answer for the evolving lineage
	formats int               // distinct formats in the store
	rng     *rand.Rand

	seedS        float64 // wall time of the seeding
	seedSpeed    float64 // host speed while it ran
	registerNs   []int64 // per Register, store observer attached
	journalBytes int64
}

// seedStore writes a fresh store the way a live daemon would have: every
// format through the journaling observer, so blobs, plan manifests and the
// journal all exist.  It then "kills" the seeding process — the store is
// closed without a snapshot, so recovery has to replay the journal.
//
// Seeding runs once per run and is reported on its own (store.seed_s), not
// inside setup_s: on the recording host the same 4 000 file creations take
// 0.7 s or 1.9 s depending on the state ext4 is in, a swing no bound on
// setup_s could tell from a real change.
func seedStore(seed int64) (*seededStore, error) {
	t0 := nowNs()
	rng := rand.New(rand.NewSource(seed))
	sd := &seededStore{rng: rng, schema: eventSchema(rng, "Sample", "xsd:float", 12)}
	var err error
	if sd.dir, err = os.MkdirTemp("", "xmitperf-store-*"); err != nil {
		return nil, err
	}
	fail := func(err error) (*seededStore, error) {
		os.RemoveAll(sd.dir)
		return nil, err
	}
	st, err := store.Open(sd.dir, store.WithSync(false), store.WithMetricsRegistry(obs.NewRegistry()))
	if err != nil {
		return fail(err)
	}
	defer st.Close() // a second Close after the success path's is harmless
	reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := st.PersistRegistry(reg); err != nil {
		return fail(err)
	}
	cat, err := catalogueFormats(rng, platform.X8664, sizing.catalogue)
	if err != nil {
		return fail(err)
	}
	chain, err := metricLineage(rng, platform.X8664, metricSteps)
	if err != nil {
		return fail(err)
	}
	for _, f := range chain {
		sd.metric = append(sd.metric, f.ID())
	}
	// The stream's own format joins its lineage now, so publishing it on a
	// recovered broker is a no-op for the registry rather than a new journal
	// record between restarts.
	stream, err := discoverEvent(sd.schema, "Sample", pbio.NewContext(), &Sample{})
	if err != nil {
		return fail(err)
	}
	ids := map[meta.FormatID]bool{}
	register := func(lineage string, f *meta.Format) error {
		t0 := nowNs()
		_, err := reg.Register(lineage, f, "benchmark")
		sd.registerNs = append(sd.registerNs, nowNs()-t0)
		ids[f.ID()] = true
		return err
	}
	for _, f := range append(cat, chain...) {
		if err := register(f.Name, f); err != nil {
			return fail(err)
		}
	}
	if err := register(telemetryChannel, stream.Format()); err != nil {
		return fail(err)
	}
	sd.formats = len(ids)
	if err := st.Err(); err != nil {
		return fail(err)
	}
	sd.docHash = sha256.Sum256(discovery.MarshalLineages(discovery.SnapshotLineagesFull(reg)))
	if fi, err := os.Stat(filepath.Join(sd.dir, "journal")); err == nil {
		sd.journalBytes = fi.Size()
	}
	reg.Observe(nil)
	if err := st.Close(); err != nil {
		return fail(err)
	}
	sd.seedS, sd.seedSpeed = float64(nowNs()-t0)/1e9, speedAt(t0, nowNs())
	return sd, nil
}

// coldEnv is the live half of metadata_cold: the XML Schema document on a
// loopback HTTP server, a broker recovered from the seeded store, and a
// background stream with one steady in-process subscriber.
type coldEnv struct {
	*seededStore
	h      *harness // background stream verification; also the failure counters
	docURL string
	docSrv *http.Server

	live     *liveBroker
	bgStop   chan struct{}
	bgKick   chan struct{} // a joiner has attached: publish now (see buildCold)
	bgDone   sync.WaitGroup
	bgSent   atomic.Int64
	joins    int64 // joins attempted
	restarts int64
}

// buildCold recovers a broker from the seeded store, publishes the schema
// document, and starts the background stream.
func buildCold(sd *seededStore, seed int64) (*coldEnv, error) {
	e := &coldEnv{seededStore: sd, h: newHarness(seed, false)}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	docs := discovery.NewDocServer()
	docs.Publish("events.xsd", []byte(sd.schema))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.docSrv = &http.Server{Handler: docs}
	go e.docSrv.Serve(ln)
	e.docURL = "http://" + ln.Addr().String() + "/events.xsd"

	var rs restartStamps
	if e.live, err = e.restart(&rs); err != nil {
		return nil, err
	}
	ch, err := e.live.broker.Create(telemetryChannel)
	if err != nil {
		return nil, err
	}
	sink := &hsink{h: e.h, r: e.h.newReceiver(), ctx: pbio.NewContext(), out: &Sample{}}
	if _, err := ch.SubscribeSink(sink, echan.Block); err != nil {
		return nil, err
	}
	var val Sample
	bind, err := discoverEvent(sd.schema, "Sample", pbio.NewContext(), &val)
	if err != nil {
		return nil, err
	}
	pl := newPayloads(e.h.rng)
	e.bgStop = make(chan struct{})
	e.bgKick = make(chan struct{}, 1)
	e.bgDone.Add(1)
	go func() {
		defer e.bgDone.Done()
		// Paced from due times, so the average rate holds however late
		// individual wake-ups are: after a late one the stream catches up.
		// On one P a timer wakes an idle process up to a millisecond late,
		// so the events arrive in small groups; a joiner that has attached
		// therefore asks for an event instead of waiting for the next group,
		// which would put the timer's granularity into every join.
		start, paced := nowNs(), 0
		timer := time.NewTimer(0)
		defer timer.Stop()
		for {
			if wait := start + int64(paced)*int64(time.Second)/backgroundRate - nowNs(); wait > 0 {
				timer.Reset(time.Duration(wait))
				select {
				case <-e.bgStop:
					return
				case <-e.bgKick:
				case <-timer.C:
					paced++
				}
			} else {
				select {
				case <-e.bgStop:
					return
				default:
				}
				paced++
			}
			seq := e.h.nextSeq
			pl.fillSample(&val, seq)
			if err := ch.Publish(bind, &val); err != nil {
				e.h.fails.errored.Add(1)
				return
			}
			e.h.nextSeq++
			e.bgSent.Store(int64(e.h.nextSeq))
		}
	}()
	ok = true
	return e, nil
}

// close stops the background stream, checks it arrived whole, and shuts the
// broker and the document server down.  The seeded store stays.
func (e *coldEnv) close() {
	if e.bgStop != nil {
		close(e.bgStop)
		e.bgDone.Wait()
		e.h.drain(drainTimeout)
	}
	if e.live != nil {
		e.live.close()
	}
	if e.docSrv != nil {
		e.docSrv.Close()
	}
}

// restart brings a broker back from the store: open, replay the registry
// journal, warm the format catalogue, listen, and answer the first LINEAGE
// query.  What came back is then checked against what was seeded: the
// evolving lineage's version IDs, the recovered counts, and — bit for bit —
// the full lineage document.
func (e *coldEnv) restart(rs *restartStamps) (*liveBroker, error) {
	e.restarts++
	reg := obs.NewRegistry()
	rs.start = nowNs()
	st, err := store.Open(e.dir, store.WithSync(false), store.WithMetricsRegistry(reg))
	if err != nil {
		return nil, err
	}
	rs.opened = nowNs()
	sr := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	stats, err := st.RecoverRegistry(sr)
	if err != nil {
		st.Close()
		return nil, err
	}
	rs.recovered = nowNs()
	warmed, err := fmtserver.NewRegistry().WarmFromStore(st)
	if err != nil {
		st.Close()
		return nil, err
	}
	rs.warmed = nowNs()
	b := &liveBroker{st: st}
	b.broker = echan.NewBroker(echan.WithRegistry(reg), echan.WithSchemaRegistry(sr), echan.WithDefaultQueue(256))
	b.srv = echan.NewServer(b.broker)
	if b.addr, err = b.srv.Listen("127.0.0.1:0"); err != nil {
		b.broker.Close()
		st.Close()
		return nil, err
	}
	rs.listening = nowNs()
	c, err := echan.DialControl(b.addr)
	if err != nil {
		b.close()
		return nil, err
	}
	defer c.Close()
	info, err := c.Lineage("metric")
	rs.answered = nowNs()
	if err != nil {
		b.close()
		return nil, err
	}

	got := make([]meta.FormatID, len(info.VersionIDs))
	for i, id := range info.VersionIDs {
		got[i] = meta.FormatID(id)
	}
	_, docs, err := c.Lineages("", 0)
	if err != nil {
		b.close()
		return nil, err
	}
	if !reflect.DeepEqual(got, e.metric) || stats.Versions != len(e.metric)+sizing.catalogue+1 ||
		warmed != e.formats || sha256.Sum256(discovery.MarshalLineages(docs)) != e.docHash {
		e.h.fails.mismatch.Add(1)
	}
	return b, nil
}

// join is one cold join: a component that has never seen the stream
// discovers its format over HTTP, binds it, subscribes, and decodes and
// verifies its first event.
func (e *coldEnv) join(js *joinStamps) error {
	e.joins++
	js.start = nowNs()
	reg := obs.NewRegistry()
	// A fresh transport: a cold component has no pooled connection to the
	// metadata server.
	tp := &http.Transport{DialContext: dialNoLinger}
	defer tp.CloseIdleConnections()
	repo := discovery.NewRepository(
		discovery.WithHTTPClient(&http.Client{Transport: tp, Timeout: 10 * time.Second}),
		discovery.WithMetricsRegistry(reg))
	tk := core.NewToolkit(core.WithRepository(repo), core.WithMetrics(reg))
	if js.traced {
		// Split LoadURL's fetch from its parse: fetch cold here, so the
		// LoadURL below starts from the cached bytes; then price a cached
		// fetch and the parse of the same bytes on their own.
		data, err := repo.Fetch(e.docURL)
		if err != nil {
			return err
		}
		t1 := nowNs()
		js.fetchColdNs = t1 - js.start
		repo.Fetch(e.docURL)
		t2 := nowNs()
		if _, err := dom.ParseBytes(data); err != nil {
			return err
		}
		js.fetchCachedNs, js.parseNs = t2-t1, nowNs()-t2
	}
	loadStart := nowNs()
	if _, err := tk.LoadURL(e.docURL); err != nil {
		return err
	}
	js.loaded = nowNs()
	if js.traced {
		// Keep the root span free of the two sibling measurements.
		js.start += loadStart - js.start - js.fetchColdNs
	}
	ctx := pbio.NewContext()
	tok, err := tk.Register("Sample", ctx)
	if err != nil {
		return err
	}
	js.registered = nowNs()
	var out Sample
	if _, err := ctx.Bind(tok.Format, &out); err != nil {
		return err
	}
	js.bound = nowNs()
	floor := e.bgSent.Load()
	sub, err := echan.DialSubscriber(e.live.addr, telemetryChannel, echan.DropOldest, 0, ctx)
	if err != nil {
		return err
	}
	defer sub.Close()
	js.dialed = nowNs()
	select {
	case e.bgKick <- struct{}{}:
	default:
	}
	f, body, err := sub.RecvMessage()
	if err != nil {
		return err
	}
	js.firstEvent = nowNs()
	if err := ctx.DecodeBody(f, body, &out); err != nil {
		return err
	}
	js.decoded = nowNs()
	// A mid-stream joiner sees only events published after it attached.
	if !out.valid() || out.Seq < floor {
		e.h.fails.mismatch.Add(1)
	}
	js.end = nowNs()
	if js.traced {
		// The paper's baseline: the same format registered from
		// compiled-in field lists.
		t0 := nowNs()
		if _, err := pbio.NewContext().RegisterFields("Sample", nativeFields("float")); err != nil {
			return err
		}
		js.nativeNs = nowNs() - t0
	}
	return nil
}

// dialNoLinger dials the metadata server with SO_LINGER 0, so that closing
// the connection resets it and leaves no TIME_WAIT entry behind (see
// joinsPerWindow): the harness's hygiene, not the joiner's cost.
func dialNoLinger(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	return c, err
}

// runCold runs metadata_cold.  Burst windows: back-to-back restarts, each its
// own slice; ops_per_s and cpu_us_per_op are the favourable decile of
// per-restart values.  Ping windows: joinsPerWindow cold joins back to back,
// one at a time and one slice a window, then restarts until the window ends.
func runCold(wl *workload, seed int64, seconds int, traced bool) (*result, error) {
	res := &result{Workload: wl.name, Metrics: map[string]metric{}}
	sd, err := seedStore(seed)
	if err != nil {
		return nil, describe(wl.name+" seeding", err)
	}
	defer os.RemoveAll(sd.dir)
	var e *coldEnv
	var setups []float64
	for first, last := nowNs(), false; !last; {
		t0 := nowNs()
		last = lastSetup(len(setups)+1, t0-first)
		if e, err = buildCold(sd, seed); err != nil {
			return nil, describe(wl.name, err)
		}
		// Set-up ends with the first cold join; the warm-up joins of the
		// build that is measured are not part of it (see setupTopology).
		warm := 1
		if last {
			warm = max(wl.warm/sizing.warmDivisor, 1)
		}
		for k := 0; k < warm; k++ {
			var js joinStamps
			if err := e.join(&js); err != nil {
				e.close()
				return nil, describe(wl.name+" warm-up", err)
			}
			if k == 0 {
				t1 := nowNs()
				setups = append(setups, float64(t1-t0)/1e9/speedAt(t0, t1))
			}
		}
		if !last {
			e.close()
			res.Attempted += e.attempted()
			res.Failed += e.h.fails.total()
		}
	}
	res.notef("seeding took %.3f s (not part of setup_s); %d set-ups, quartiles %s s", sd.seedS, len(setups), fmtFloats(quartiles(setups), 3))
	closedOnce := false
	closeEnv := func() {
		if !closedOnce {
			closedOnce = true
			e.close()
		}
	}
	defer closeEnv()

	// A restart is its own slice: start to the first LINEAGE answer, without
	// the shutdown that makes room for the next one.
	var stamps []restartStamps
	var restarts []sliceStat
	restartOnce := func() error {
		var rs restartStamps
		u0, s0 := cpuTimes()
		b, err := e.restart(&rs)
		if err != nil {
			return describe(wl.name+" restart", err)
		}
		u1, s1 := cpuTimes()
		b.close()
		stamps = append(stamps, rs)
		restarts = append(restarts, sliceStat{start: rs.start, end: rs.answered, ops: 1,
			userNs: u1 - u0, sysNs: s1 - s0, speed: speedAt(rs.start, rs.answered)})
		return nil
	}
	var joins []joinStamps
	joinOnce := func() (int64, int64, error) {
		js := joinStamps{traced: traced && len(joins)%2 == 0}
		if err := e.join(&js); err != nil {
			return 0, 0, describe(wl.name+" join", err)
		}
		joins = append(joins, js)
		if js.end-js.start > latencyLimitNs {
			e.h.fails.overLimit.Add(1)
		}
		return 1, js.end - js.start, nil
	}

	// Restart windows and join windows are interleaved like every
	// workload's; the traced pass's two kinds of burst window are both
	// restart windows.
	var joinWindows [][]sliceStat
	for _, kind := range phasePlan(seconds, traced) {
		deadline := nowNs() + int64(sizing.window)
		if kind == pingWindow {
			w, err := measure(sizing.window, sizing.window, joinsPerWindow, true, joinOnce)
			if err != nil {
				return nil, err
			}
			joinWindows = append(joinWindows, w)
		}
		for nowNs() < deadline {
			if err := restartOnce(); err != nil {
				return nil, err
			}
		}
	}
	for len(restarts) < sizing.minRestarts {
		if err := restartOnce(); err != nil {
			return nil, err
		}
	}
	res.notef("%d restarts; ops_per_s and cpu_us_per_op are from the favourable decile of per-restart values (median %.3f restarts/s)",
		len(restarts), median(rates(restarts)))
	goroutines := runtime.NumGoroutine()
	lat := summarizeLatency(joinWindows)
	lat.note(res, "joins", len(joinWindows))

	if !traced {
		res.set("setup_s", median(setups))
		res.set("ops_per_s", favourable(rates(restarts), true))
		res.set("cpu_us_per_op", favourable(cpuPerOp(restarts, totalCPU), false))
		res.set("latency_p50_us", lat.p50)
	} else {
		fillZeroLayers(res)
		fillColdLayers(res, e, stamps, joins)
		fillProcessLayers(res, lat, goroutines)
	}
	closeEnv()
	res.Attempted += e.attempted()
	res.Failed += e.h.fails.total()
	res.Fails = e.h.fails.String()
	return res, nil
}

// attempted counts the workload's operations: background deliveries, joins
// and restarts.
func (e *coldEnv) attempted() int64 {
	return e.h.attempted() + e.joins + e.restarts
}

// fillColdLayers builds the restart and join spans and derives the
// control-plane per-layer metrics from them.
func fillColdLayers(res *result, e *coldEnv, restarts []restartStamps, joins []joinStamps) {
	var t tracer
	for i, rs := range restarts {
		ev := uint64(i)
		t.speed = speedAt(rs.start, rs.answered)
		root := t.add("restart", rs.start, rs.answered, 0, ev)
		t.add("store.open", rs.start, rs.opened, root, ev)
		t.add("store.recover", rs.opened, rs.recovered, root, ev)
		t.add("fmtserver.warm", rs.recovered, rs.warmed, root, ev)
		t.add("echan.listen_lineage", rs.warmed, rs.answered, root, ev)
	}
	var tracedSvc, plainSvc, cold, cached, parse, native, rdm []float64
	for i := range joins {
		js := &joins[i]
		if js.end == 0 {
			continue
		}
		speed := speedAt(js.start, js.end)
		svc := float64(js.end-js.start) / speed
		if !js.traced {
			plainSvc = append(plainSvc, svc)
			continue
		}
		tracedSvc = append(tracedSvc, svc)
		ev := uint64(len(restarts) + i)
		t.speed = speed
		root := t.add("join", js.start, js.end, 0, ev)
		fetched := js.start + js.fetchColdNs
		t.add("discovery.fetch_cold", js.start, fetched, root, ev)
		load := t.add("core.load", fetched, js.loaded, root, ev)
		t.add("dom.parse", fetched, fetched+js.parseNs, load, ev)
		t.add("core.register", js.loaded, js.registered, root, ev)
		t.add("pbio.bind", js.registered, js.bound, root, ev)
		t.add("echan.dial_sub", js.bound, js.dialed, root, ev)
		t.add("echan.first_event", js.dialed, js.firstEvent, root, ev)
		t.add("pbio.decode", js.firstEvent, js.decoded, root, ev)
		t.add("harness.verify", js.decoded, js.end, root, ev)
		cold = append(cold, float64(js.fetchColdNs)/speed)
		cached = append(cached, float64(js.fetchCachedNs)/speed)
		parse = append(parse, float64(js.parseNs)/speed)
		native = append(native, float64(js.nativeNs)/speed)
		rdm = append(rdm, float64(js.fetchColdNs+(js.loaded-fetched)+(js.registered-js.loaded))/float64(max(js.nativeNs, 1)))
	}
	res.Spans = t.spans
	setShares(res, t.spans)

	p50 := func(name string) float64 { return medianOfInt64(t.durations(name)) }
	res.set("store.open_ns", p50("store.open"))
	res.set("store.recover_ns", p50("store.recover"))
	if ns := p50("store.recover"); ns > 0 {
		res.set("store.recover_regs_per_s", float64(len(e.metric)+sizing.catalogue+1)*1e9/ns)
	}
	res.set("store.journal_bytes", float64(e.journalBytes))
	res.set("store.seed_s", e.seedS/e.seedSpeed)
	res.set("fmtserver.warm_ns", p50("fmtserver.warm"))
	res.set("echan.listen_lineage_ns", p50("echan.listen_lineage"))
	res.set("registry.register_ns", medianOfInt64(e.registerNs)/e.seedSpeed)
	res.set("discovery.fetch_cold_ns", median(cold))
	res.set("discovery.fetch_cached_ns", median(cached))
	res.set("dom.parse_ns", median(parse))
	res.set("core.load_ns", p50("core.load"))
	res.set("core.register_ns", p50("core.register"))
	res.set("core.rdm", median(rdm))
	res.set("pbio.bind_ns", p50("pbio.bind"))
	res.set("pbio.register_native_ns", median(native))
	res.set("pbio.decode_ns", p50("pbio.decode"))
	res.set("pbio.pool_hit_ratio", poolHitRatio())
	res.set("echan.dial_sub_ns", p50("echan.dial_sub"))
	res.set("echan.first_event_ns", p50("echan.first_event"))
	if len(tracedSvc) > 0 && len(plainSvc) > 0 {
		// Every other join of the traced pass runs untraced; the ratio of
		// their service times is what tracing costs.
		res.set("trace.overhead_ratio", median(plainSvc)/median(tracedSvc))
	}
	res.notef("restart p50 %.1f ms; join p50 traced %.0f us, untraced %.0f us",
		p50("restart")/1e6, median(tracedSvc)/1e3, median(plainSvc)/1e3)
}
