// The evolve-mesh figure: what view negotiation costs across a broker
// boundary.
//
// The evolve figure measures projection at the channel's home broker; this
// one moves the subscribers behind a federated link.  A publisher stays at
// the head of a lineage homed on broker A; every subscriber attaches
// through broker B, whose registry learned the lineage only from the
// gossiped document.  For pinned subscribers the projection plan runs on B,
// once per event for all of them — the remote broker pays for the views it
// serves, the home pays once per event to ship it — so the pinned column
// prices the federated registry's core promise: pin anywhere, decode
// identically.
package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/open-metadata/xmit/internal/echan"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/registry"
)

// EvolveMeshSteps is the lineage-depth axis of the federated view
// experiment.  Two points suffice: the cross-broker overhead is visible at
// depth 1 and the projection cost dominates by depth 16.
var EvolveMeshSteps = []int{1, 16}

// EvolveMeshRow compares head-tracking and v1-pinned subscribers attached
// through a remote broker, against one lineage depth.
type EvolveMeshRow struct {
	LineageSteps int

	HeadEventsPerSec   float64 // remote subscribers at the head: link + fan-out
	PinnedEventsPerSec float64 // remote subscribers pinned at v1: + projection on B
	ProjectedPerEvent  float64 // projections executed / deliveries on the remote broker: 1/evolveSubscribers
}

// EvolveMesh runs the federated view-negotiation experiment at the
// standard depths.
func EvolveMesh(o Options) ([]EvolveMeshRow, error) {
	return EvolveMeshStepCounts(o, EvolveMeshSteps)
}

// EvolveMeshStepCounts is EvolveMesh with caller-chosen lineage depths.
func EvolveMeshStepCounts(o Options, stepCounts []int) ([]EvolveMeshRow, error) {
	// The first cell of the process pays one-time costs (heap growth, TCP
	// and goroutine ramp-up) worth 2-3x on quick passes; burn them on a
	// throwaway cell so the first real depth isn't penalized.
	warm := Options{BatchTime: 500 * time.Microsecond, Batches: 2, MinIters: 8}
	if _, _, err := evolveMeshRun(warm, 1, false); err != nil {
		return nil, err
	}
	var rows []EvolveMeshRow
	for _, s := range stepCounts {
		row := EvolveMeshRow{LineageSteps: s}
		var err error
		if row.HeadEventsPerSec, _, err = evolveMeshRun(o, s, false); err != nil {
			return nil, err
		}
		if row.PinnedEventsPerSec, row.ProjectedPerEvent, err = evolveMeshRun(o, s, true); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// evolveMeshRun measures one configuration: the lineage registered at the
// home broker A, broker B linked over loopback TCP and holding only what
// the lineage gossip wire carried, and every subscriber attached through B
// either at the head or pinned to v1.
func evolveMeshRun(o Options, steps int, pinned bool) (eventsPerSec, projectedPerEvent float64, err error) {
	chain, err := evolveChainFormats(steps)
	if err != nil {
		return 0, 0, err
	}

	type node struct {
		broker *echan.Broker
		mesh   *echan.Mesh
		reg    *obs.Registry
		addr   string
	}
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()
	boot := func() (node, error) {
		reg := obs.NewRegistry()
		sr := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
		b := echan.NewBroker(echan.WithRegistry(reg), echan.WithDefaultQueue(256), echan.WithSchemaRegistry(sr))
		srv := echan.NewServer(b)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return node{}, err
		}
		m := echan.NewMesh(b, addr)
		srv.AttachMesh(m)
		closers = append(closers, func() { m.Close(); srv.Close(); b.Close() })
		return node{broker: b, mesh: m, reg: reg, addr: addr}, nil
	}
	home, err := boot()
	if err != nil {
		return 0, 0, err
	}
	remote, err := boot()
	if err != nil {
		return 0, 0, err
	}
	remote.mesh.AddPeer(home.addr)

	for _, f := range chain {
		if _, err := home.broker.SchemaRegistry().Register("evmesh", f, "bench"); err != nil {
			return 0, 0, err
		}
	}
	ch, err := home.broker.Create("evmesh", echan.WithQueue(256))
	if err != nil {
		return 0, 0, err
	}
	proxy, err := remote.mesh.SubscriberChannel("evmesh")
	if err != nil {
		return 0, 0, err
	}
	// B's registry holds only what the lineage wire delivered — the pull a
	// remote pinned SUB triggers.
	if err := remote.mesh.SyncLineage(home.addr, "evmesh"); err != nil {
		return 0, 0, err
	}
	for i := 0; i < evolveSubscribers; i++ {
		if pinned {
			_, err = proxy.SubscribeVersion(io.Discard, echan.Block, 1)
		} else {
			_, err = proxy.Subscribe(io.Discard, echan.Block)
		}
		if err != nil {
			return 0, 0, err
		}
	}

	ctx := pbio.NewContext(pbio.WithPlatform(Paper))
	head := chain[len(chain)-1]
	rec := pbio.NewRecord(head)
	if err := rec.Set("seq", 1); err != nil {
		return 0, 0, err
	}
	if err := rec.Set("value", 98.6); err != nil {
		return 0, 0, err
	}
	msg, err := ctx.EncodeRecord(rec)
	if err != nil {
		return 0, 0, err
	}

	sync := func() {
		ch.Sync()
		h := ch.Stats().Head
		deadline := time.Now().Add(30 * time.Second)
		for {
			links := remote.mesh.Links()
			if len(links) > 0 && links[0].LastGen >= h {
				break
			}
			if time.Now().After(deadline) {
				return // the measurement will show the stall; don't hang
			}
			time.Sleep(20 * time.Microsecond)
		}
		proxy.Sync()
	}
	perEventNs, _, err := measureFanout(o, func() error {
		return ch.PublishMessage(head, msg)
	}, sync)
	if err != nil {
		return 0, 0, err
	}
	projected, _ := remote.reg.Value("echan_evmesh_view_projected_total")
	delivered, _ := remote.reg.Value("echan_evmesh_delivered_total")
	if delivered > 0 {
		projectedPerEvent = projected / delivered
	}
	return 1e9 / perEventNs, projectedPerEvent, nil
}

// EvolveMeshRecords flattens the figure for the JSON gate.  The projection
// ratio is not a rate, so only the two events/s columns gate.
func EvolveMeshRecords(rows []EvolveMeshRow) []JSONRecord {
	var out []JSONRecord
	for _, r := range rows {
		cfg := fmt.Sprintf("%dsteps", r.LineageSteps)
		out = append(out,
			record("evolve-mesh", cfg, "head_events", r.HeadEventsPerSec, "events/s"),
			record("evolve-mesh", cfg, "pinned_events", r.PinnedEventsPerSec, "events/s"),
			record("evolve-mesh", cfg, "projected_per_event", r.ProjectedPerEvent, "ratio"),
		)
	}
	return out
}

// PrintEvolveMesh renders the federated view-negotiation table.
func PrintEvolveMesh(w io.Writer, rows []EvolveMeshRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "Federated view negotiation: %d subscribers through a remote broker, lineage learned by gossip\n", evolveSubscribers)
	fmt.Fprintf(w, "%6s %14s %14s %14s %10s\n",
		"steps", "head ev/s", "pinned ev/s", "proj/delivery", "slowdown")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %14.0f %14.0f %14.3f %10.2f\n",
			r.LineageSteps, r.HeadEventsPerSec, r.PinnedEventsPerSec,
			r.ProjectedPerEvent, r.HeadEventsPerSec/r.PinnedEventsPerSec)
	}
}
