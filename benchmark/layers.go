package main

import (
	"runtime"

	"github.com/open-metadata/xmit/internal/obs"
)

// metricSpec names one reported metric.  BENCHMARK.json lists the same
// names, units and directions; spec_test.go keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees.  An "op" is an event
// received and verified by every subscriber on the data-plane workloads; on
// metadata_cold it is a broker restart in the burst windows and a cold join
// in the ping windows.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"latency_p50_us", "us", "lower"},
}

// perLayer are the single-layer metrics of the traced pass.  A workload that
// never enters a layer reports 0 for it, which is the measured fact the
// bypass predictions rest on.
var perLayer = []metricSpec{
	{"pbio.encode_ns", "ns", "lower"},
	{"pbio.decode_ns", "ns", "lower"},
	{"pbio.record_decode_ns", "ns", "lower"},
	{"pbio.record_encode_ns", "ns", "lower"},
	{"pbio.bind_ns", "ns", "lower"},
	{"pbio.register_native_ns", "ns", "lower"},
	{"pbio.pool_hit_ratio", "ratio", "higher"},
	{"transport.send_ns", "ns", "lower"},
	{"transport.send_self_ns", "ns", "lower"},
	{"transport.recv_wait_ns", "ns", "lower"},
	{"transport.wire_bytes_per_event", "bytes", "lower"},
	{"transport.formats_announced", "count", "lower"},
	{"transport.payload_mb_per_s", "MB/s", "higher"},
	{"echan.publish_ns", "ns", "lower"},
	{"echan.queue_wait_ns", "ns", "lower"},
	{"echan.queue_wait_p99_ns", "ns", "lower"},
	{"echan.fanout_skew_ns", "ns", "lower"},
	{"echan.sink_batch_events", "count", "higher"},
	{"echan.block_waits_per_event", "ratio", "lower"},
	{"echan.depth_max", "count", "lower"},
	{"echan.shard_depth_max", "count", "lower"},
	{"echan.server_transit_ns", "ns", "lower"},
	{"echan.view_extra_ns", "ns", "lower"},
	{"echan.view_projected_per_delivery", "ratio", "lower"},
	{"echan.head_queue_wait_ns", "ns", "lower"},
	{"echan.link_hop_ns", "ns", "lower"},
	{"echan.link_gaps", "count", "lower"},
	{"echan.link_reconnects", "count", "lower"},
	{"echan.dial_sub_ns", "ns", "lower"},
	{"echan.first_event_ns", "ns", "lower"},
	{"echan.listen_lineage_ns", "ns", "lower"},
	{"registry.project_ns", "ns", "lower"},
	{"registry.register_ns", "ns", "lower"},
	{"store.open_ns", "ns", "lower"},
	{"store.recover_ns", "ns", "lower"},
	{"store.recover_regs_per_s", "1/s", "higher"},
	{"store.journal_bytes", "bytes", "lower"},
	{"store.seed_s", "s", "lower"},
	{"fmtserver.warm_ns", "ns", "lower"},
	{"discovery.fetch_cold_ns", "ns", "lower"},
	{"discovery.fetch_cached_ns", "ns", "lower"},
	{"dom.parse_ns", "ns", "lower"},
	{"core.load_ns", "ns", "lower"},
	{"core.register_ns", "ns", "lower"},
	{"core.rdm", "ratio", "lower"},
	{"proc.cpu_user_us_per_event", "us", "lower"},
	{"proc.cpu_sys_us_per_event", "us", "lower"},
	{"proc.allocs_per_event", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.heap_inuse_mb", "MB", "lower"},
	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.goroutines", "count", "lower"},
	{"host.ns_per_step", "ns", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
	{"tail.latency_p90_us", "us", "lower"},
	{"tail.latency_p99_us", "us", "lower"},
	{"share.pbio_pct", "%", "lower"},
	{"share.transport_pct", "%", "lower"},
	{"share.echan_pct", "%", "lower"},
	{"share.registry_pct", "%", "lower"},
	{"share.store_pct", "%", "lower"},
	{"share.discovery_core_dom_pct", "%", "lower"},
	{"share.harness_pct", "%", "lower"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, s := range endToEnd {
		m[s.Name] = s.Unit
	}
	for _, s := range perLayer {
		m[s.Name] = s.Unit
	}
	return m
}()

func unitOf(name string) string { return units[name] }

// fillZeroLayers starts every per-layer metric at 0, so the traced pass
// prints the full list on every workload.
func fillZeroLayers(res *result) {
	for _, s := range perLayer {
		res.set(s.Name, 0)
	}
}

// fillProcessLayers reports what every workload's traced pass reports the
// same way: the ping windows' tail, the host's speed, and the process's memory
// and goroutines.
func fillProcessLayers(res *result, lat latencySummary, goroutines int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set("tail.latency_p90_us", lat.tailP90)
	res.set("tail.latency_p99_us", lat.tailP99)
	res.set("host.ns_per_step", speedAt(0, nowNs())*refNsPerStep)
	res.set("proc.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
	res.set("proc.heap_inuse_mb", float64(ms.HeapInuse)/(1<<20))
	res.set("proc.peak_rss_mb", peakRSSMB())
	res.set("proc.goroutines", float64(goroutines))
}

// poolHitRatio reads pbio's buffer-pool counters from the process-wide
// registry they are published in.
func poolHitRatio() float64 {
	gets, _ := obs.Default().Value("pbio_pool_get_total")
	hits, _ := obs.Default().Value("pbio_pool_hit_total")
	if gets == 0 {
		return 0
	}
	return hits / gets
}

// setShares reports the per-layer rollup of the stacked table.
func setShares(res *result, spans []span) {
	_, layers := shares(spans)
	for _, l := range []string{"pbio", "transport", "echan", "registry", "store", "harness"} {
		res.set("share."+l+"_pct", 100*layers[l])
	}
	res.set("share.discovery_core_dom_pct", 100*(layers["discovery"]+layers["core"]+layers["dom"]))
}

// eventSpans turns one traced event's timestamps into spans.  The stages on
// the path of the subscriber that finished last are laid end to end under
// the event's root span; work the program nests inside one of its own calls
// (the encode inside Send or Publish, the pinned-view projection inside the
// broker's delivery) appears as a child holding the sibling measurement the
// harness took of the same value.
func eventSpans(t *tracer, tr *evTrace, wl *workload) {
	crit := -1
	for i := range tr.sinks {
		if tr.sinks[i].verified == 0 {
			return // a subscriber never stamped this event: leave it out
		}
		if crit < 0 || tr.sinks[i].verified > tr.sinks[crit].verified {
			crit = i
		}
	}
	if crit < 0 || tr.sendEnd == 0 {
		return
	}
	c := &tr.sinks[crit]
	// Stage boundaries along the critical path.  Stages of one event run
	// on different goroutines and can overlap by a few microseconds (the
	// subscriber may hold the event before Send has returned); a stage is
	// cut short where the next one demonstrably began, so that the stages
	// tile the event and their shares add up to one.
	encodeStart := tr.sendStart
	if wl.recordPublisher {
		encodeStart -= tr.encodeNs // the record publisher encodes before it publishes
	}
	tap := tr.tap.Load()
	if tap == 0 {
		tap = c.entry
	}
	b := []int64{tr.due, encodeStart, tr.sendStart, tr.sendEnd, tap, c.entry, c.decodeStart, c.decoded, c.verified}
	for i := len(b) - 2; i >= 0; i-- {
		b[i] = min(b[i], b[i+1])
	}
	t.speed = speedAt(b[0], b[8])
	root := t.add("event", b[0], b[8], 0, tr.seq)
	t.add("harness.prepare", b[0], b[1], root, tr.seq)
	switch {
	case wl.recordPublisher:
		t.add("pbio.encode", b[1], b[2], root, tr.seq)
		t.add("echan.publish", b[2], b[3], root, tr.seq)
	case wl.inProcess:
		p := t.add("echan.publish", b[2], b[3], root, tr.seq)
		t.add("pbio.encode", b[2], b[2]+tr.encodeNs, p, tr.seq)
	default:
		p := t.add("transport.send", b[2], b[3], root, tr.seq)
		t.add("pbio.encode", b[2], b[2]+tr.encodeNs, p, tr.seq)
	}
	switch {
	case wl.inProcess:
		q := t.add("echan.queue_wait", b[3], b[5], root, tr.seq)
		if wl.pinned > 0 && crit > 0 {
			// The broker decoded, projected and re-encoded this event
			// for the pinned subscriber before entering its sink.
			e := b[5]
			t.add("pbio.record_encode", e-tr.recEncNs, e, q, tr.seq)
			e -= tr.recEncNs
			t.add("registry.project", e-tr.projectNs, e, q, tr.seq)
			e -= tr.projectNs
			t.add("pbio.record_decode", e-tr.recDecNs, e, q, tr.seq)
		}
	default:
		t.add("echan.server_transit", b[3], b[4], root, tr.seq)
		if b[5] > b[4] {
			t.add("echan.link_hop", b[4], b[5], root, tr.seq)
		}
	}
	t.add("harness.batch_wait", b[5], b[6], root, tr.seq)
	t.add("pbio.decode", b[6], b[7], root, tr.seq)
	t.add("harness.verify", b[7], b[8], root, tr.seq)
}

// fillDataPlaneLayers derives the per-layer metrics of a data-plane
// workload from the traced ping windows, the burst windows, and the public
// counters.  Timings are at the reference speed, like the end-to-end ones.
func fillDataPlaneLayers(res *result, h *harness, wl *workload, topo *topology, bursts, burstsTraced, pings []windowResult) {
	var t tracer
	var encode, send, sendSelf, publish, recvWait, transit, linkHop, decode []int64
	var lastWait, headWait, viewExtra, skew []int64
	var recDec, recEnc, project []int64
	for _, w := range pings {
		for i := range w.ps.traces {
			tr := &w.ps.traces[i]
			if tr.sendEnd == 0 {
				continue
			}
			spans := len(t.spans)
			eventSpans(&t, tr, wl)
			if len(t.spans) == spans {
				continue // a subscriber never stamped the event
			}
			at := func(ns int64) int64 { return atSpeed(ns, t.speed) }
			encode = append(encode, at(tr.encodeNs))
			if wl.inProcess {
				publish = append(publish, at(tr.sendEnd-tr.sendStart))
				first, last := tr.sinks[0].entry, tr.sinks[0].entry
				for _, s := range tr.sinks {
					first, last = min(first, s.entry), max(last, s.entry)
				}
				lastWait = append(lastWait, at(max(last-tr.sendEnd, 0)))
				skew = append(skew, at(last-first))
				if wl.pinned > 0 {
					headWait = append(headWait, at(max(tr.sinks[0].entry-tr.sendEnd, 0)))
					viewExtra = append(viewExtra, at(last-tr.sinks[0].entry))
					recDec = append(recDec, at(tr.recDecNs))
					recEnc = append(recEnc, at(tr.recEncNs))
					project = append(project, at(tr.projectNs))
				}
				continue
			}
			s := tr.sinks[0]
			send = append(send, at(tr.sendEnd-tr.sendStart))
			sendSelf = append(sendSelf, at(max(tr.sendEnd-tr.sendStart-tr.encodeNs, 0)))
			recvWait = append(recvWait, at(s.entry-s.waitStart))
			transit = append(transit, at(max(s.entry-tr.sendEnd, 0)))
			if tap := tr.tap.Load(); tap != 0 {
				linkHop = append(linkHop, at(max(s.entry-tap, 0)))
			}
		}
	}
	decode = t.durations("pbio.decode")
	res.Spans = t.spans
	setShares(res, t.spans)

	res.set("pbio.encode_ns", medianOfInt64(encode))
	res.set("pbio.record_encode_ns", medianOfInt64(recEnc))
	res.set("pbio.record_decode_ns", medianOfInt64(recDec))
	res.set("registry.project_ns", medianOfInt64(project))
	res.set("pbio.decode_ns", medianOfInt64(decode))
	res.set("pbio.pool_hit_ratio", poolHitRatio())
	res.set("transport.send_ns", medianOfInt64(send))
	res.set("transport.send_self_ns", medianOfInt64(sendSelf))
	res.set("transport.recv_wait_ns", medianOfInt64(recvWait))
	res.set("echan.publish_ns", medianOfInt64(publish))
	res.set("echan.queue_wait_ns", medianOfInt64(lastWait))
	res.set("echan.queue_wait_p99_ns", p99OfInt64(lastWait))
	res.set("echan.fanout_skew_ns", medianOfInt64(skew))
	res.set("echan.server_transit_ns", medianOfInt64(transit))
	res.set("echan.head_queue_wait_ns", medianOfInt64(headWait))
	res.set("echan.view_extra_ns", medianOfInt64(viewExtra))
	res.set("echan.link_hop_ns", medianOfInt64(linkHop))

	c := topo.counters()
	if c.wireMessages > 0 {
		res.set("transport.wire_bytes_per_event", float64(c.wireBytes)/float64(c.wireMessages))
	}
	res.set("transport.formats_announced", float64(c.formatsAnnounced))
	bs := slicesOf(bursts)
	base := favourable(rates(bs), true)
	res.set("transport.payload_mb_per_s", base*float64(topo.payload)/1e6)
	if c.sinkWrites > 0 {
		res.set("echan.sink_batch_events", c.delivered/c.sinkWrites)
	}
	if c.pinnedDeliveries > 0 {
		res.set("echan.view_projected_per_delivery", c.viewProjected/c.pinnedDeliveries)
	}
	res.set("echan.link_gaps", float64(c.linkGaps))
	res.set("echan.link_reconnects", float64(c.linkReconnects))

	var depthMax, shardMax int64
	for _, s := range h.depths {
		depthMax, shardMax = max(depthMax, s.depth), max(shardMax, s.shardDepth)
	}
	res.set("echan.depth_max", float64(depthMax))
	res.set("echan.shard_depth_max", float64(shardMax))
	var blocked int64
	var allocs uint64
	for _, w := range bursts {
		blocked, allocs = blocked+w.blocked, allocs+w.allocs
	}
	if events := opsIn(bs); events > 0 {
		res.set("echan.block_waits_per_event", float64(blocked)/float64(events))
		res.set("proc.allocs_per_event", float64(allocs)/float64(events))
	}

	res.set("proc.cpu_user_us_per_event", favourable(cpuPerOp(bs, func(s *sliceStat) int64 { return s.userNs }), false))
	res.set("proc.cpu_sys_us_per_event", favourable(cpuPerOp(bs, func(s *sliceStat) int64 { return s.sysNs }), false))
	if base > 0 {
		tracedRate := favourable(rates(slicesOf(burstsTraced)), true)
		res.set("trace.overhead_ratio", tracedRate/base)
		res.notef("burst windows: %.0f ev/s traced vs %.0f untraced (upper deciles of slice rates)", tracedRate, base)
	}
}
