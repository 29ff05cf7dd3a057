package main

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	warm int // warm-up operations on the build that is measured, after set-up

	build func(h *harness, pl *payloads) (*topology, error) // nil: metadata_cold

	inProcess       bool // publisher and subscribers call the broker directly, no sockets
	recordPublisher bool // the publisher encodes dynamic records before publishing
	pinned          int  // subscribers pinned to lineage version 1
}

func (wl *workload) run(seed int64, seconds int, traced bool) (*result, error) {
	startSpeedometer()
	if wl.build == nil {
		return runCold(wl, seed, seconds, traced)
	}
	return runDataPlane(wl, seed, seconds, traced)
}

const (
	fanoutWidth = 64
	evolvePins  = 3
)

// workloads lists the six workloads in the order the suite runs them.  The
// `why` strings are repeated in BENCHMARK.json.
var workloads = []*workload{
	{
		name: "stream_small",
		why:  "100 B events over loopback TCP through one broker: per-event fixed cost (frames, syscalls, queue hand-off) is the bill and pbio is noise",
		warm: 100000,
		build: func(h *harness, pl *payloads) (*topology, error) {
			return buildStream(h, pl, streamSpec{channel: "small", subQueue: 256})
		},
	},
	{
		name: "stream_large",
		why:  "100 KB events encoded big-endian, decoded receiver-makes-right: bytes are the bill, pbio encode/decode and copies dominate",
		warm: 2000,
		build: func(h *harness, pl *payloads) (*topology, error) {
			return buildStream(h, pl, streamSpec{channel: "large", large: true, subQueue: 256})
		},
	},
	{
		name:      "fanout_wide",
		why:       "in-process publish to 64 sinks with shipped defaults: shard ring, refcounts and 64 queues are the bill, no sockets; latency is set by the slowest of 64",
		warm:      20000,
		inProcess: true,
		build: func(h *harness, pl *payloads) (*topology, error) {
			return buildFanout(h, pl, fanoutWidth)
		},
	},
	{
		name:      "evolve_pinned",
		why:       "publisher at the head of a 16-step lineage, 3 sinks pinned to v1 and 1 at the head: decode, project, re-encode per pinned delivery is the bill",
		warm:      10000,
		inProcess: true, recordPublisher: true, pinned: evolvePins,
		build: func(h *harness, pl *payloads) (*topology, error) {
			return buildEvolve(h, pl, metricSteps, evolvePins)
		},
	},
	{
		name: "mesh_hop",
		why:  "publisher on the home broker, subscriber on a second broker: the only workload that crosses a mesh link (re-frame, gen dedupe, re-publish)",
		warm: 100000,
		build: func(h *harness, pl *payloads) (*topology, error) {
			return buildStream(h, pl, streamSpec{channel: "hop", viaMesh: true, subQueue: 256})
		},
	},
	{
		name: "metadata_cold",
		why:  "2000-lineage store: broker restarts and cold joins from discovery to first event, beside a live stream; control-plane work, the data plane is near idle",
		warm: 50,
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}
