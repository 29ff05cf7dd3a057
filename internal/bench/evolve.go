// The evolve figure: what live view negotiation costs.
//
// A publisher stays at the head of a format lineage with S evolution steps
// behind it; subscribers either track the head (ordinary pass-through
// fan-out) or pin version 1 at subscribe time.  For pinned subscribers the
// broker runs a compiled wire-to-wire plan over each head event — once per
// event per pinned version, into a pooled frame every subscriber of that
// version shares.  The figure reports publish throughput for both
// subscriber kinds as the lineage deepens (more added fields between the
// pinned view and the head means a larger head frame to publish; the plan
// itself copies only the v1 block), plus projections executed per delivery,
// from the broker's own view_projected counter: 1/subscribers when the
// sharing works, 1.0 if every delivery projected for itself.

package bench

import (
	"fmt"
	"io"

	"github.com/open-metadata/xmit/internal/echan"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/registry"
)

// EvolveLineageSteps is the x-axis of the view-negotiation experiment: how
// many evolution steps separate the pinned view from the head.
var EvolveLineageSteps = []int{1, 4, 16}

// evolveSubscribers is the fixed fan-out width of the experiment.
const evolveSubscribers = 4

// EvolveRow compares head-tracking and v1-pinned subscribers against one
// lineage depth.
type EvolveRow struct {
	LineageSteps int

	HeadEventsPerSec   float64 // all subscribers at the head: pass-through
	PinnedEventsPerSec float64 // all subscribers pinned at v1: one projection per event, shared
	ProjectedPerEvent  float64 // projections executed / deliveries, pinned run: 1/evolveSubscribers
}

// Evolve runs the view-negotiation experiment at the standard depths.
func Evolve(o Options) ([]EvolveRow, error) {
	return EvolveStepCounts(o, EvolveLineageSteps)
}

// EvolveStepCounts is Evolve with caller-chosen lineage depths.
func EvolveStepCounts(o Options, stepCounts []int) ([]EvolveRow, error) {
	var rows []EvolveRow
	for _, s := range stepCounts {
		row := EvolveRow{LineageSteps: s}
		var err error
		if row.HeadEventsPerSec, _, err = evolveRun(o, s, false); err != nil {
			return nil, err
		}
		if row.PinnedEventsPerSec, row.ProjectedPerEvent, err = evolveRun(o, s, true); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// evolveChainFormats builds the lineage: v1 carries a Figure 8-sized payload
// (seq, value, 10-int pad), and each later version adds one long field — the
// backward-compatible growth a telemetry format accretes in production.
func evolveChainFormats(steps int) ([]*meta.Format, error) {
	defs := []meta.FieldDef{
		{Name: "seq", Kind: meta.Unsigned, Class: platform.LongLong},
		{Name: "value", Kind: meta.Float, Class: platform.Double},
		{Name: "pad", Kind: meta.Integer, Class: platform.Int, StaticDim: 10},
	}
	out := make([]*meta.Format, 0, steps+1)
	for v := 0; v <= steps; v++ {
		f, err := meta.Build("metric", Paper, append([]meta.FieldDef(nil), defs...))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
		defs = append(defs, meta.FieldDef{
			Name: fmt.Sprintf("g%d", v), Kind: meta.Integer, Class: platform.LongLong,
		})
	}
	return out, nil
}

// evolveRun measures one configuration: a lineage of the given depth seeded
// into a schema registry, the publisher at the head, and every subscriber
// either at the head or pinned to v1.
func evolveRun(o Options, steps int, pinned bool) (eventsPerSec, projectedPerEvent float64, err error) {
	chain, err := evolveChainFormats(steps)
	if err != nil {
		return 0, 0, err
	}
	sr := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	for _, f := range chain {
		if _, err := sr.Register("evolve", f, "bench"); err != nil {
			return 0, 0, err
		}
	}

	reg := obs.NewRegistry()
	broker := echan.NewBroker(echan.WithRegistry(reg), echan.WithSchemaRegistry(sr))
	defer broker.Close()
	ch, err := broker.Create("evolve", echan.WithQueue(256))
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < evolveSubscribers; i++ {
		if pinned {
			_, err = ch.SubscribeVersion(io.Discard, echan.Block, 1)
		} else {
			_, err = ch.Subscribe(io.Discard, echan.Block)
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

	perEventNs, _, err := measureFanout(o, func() error {
		return ch.PublishMessage(head, msg)
	}, ch.Sync)
	if err != nil {
		return 0, 0, err
	}
	projected, _ := reg.Value("echan_evolve_view_projected_total")
	delivered, _ := reg.Value("echan_evolve_delivered_total")
	if delivered > 0 {
		projectedPerEvent = projected / delivered
	}
	return 1e9 / perEventNs, projectedPerEvent, nil
}

// EvolveRecords flattens the figure for the JSON gate.  The projection
// ratio is not a rate, so only the two events/s columns gate.
func EvolveRecords(rows []EvolveRow) []JSONRecord {
	var out []JSONRecord
	for _, r := range rows {
		cfg := fmt.Sprintf("%dsteps", r.LineageSteps)
		out = append(out,
			record("evolve", cfg, "head_events", r.HeadEventsPerSec, "events/s"),
			record("evolve", cfg, "pinned_events", r.PinnedEventsPerSec, "events/s"),
			record("evolve", cfg, "projected_per_event", r.ProjectedPerEvent, "ratio"),
		)
	}
	return out
}

// PrintEvolve renders the view-negotiation table.
func PrintEvolve(w io.Writer, rows []EvolveRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "View negotiation: %d subscribers at the head vs pinned to v1, publisher at the head\n", evolveSubscribers)
	fmt.Fprintf(w, "%6s %14s %14s %14s %10s\n",
		"steps", "head ev/s", "pinned ev/s", "proj/delivery", "slowdown")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %14.0f %14.0f %14.3f %10.2f\n",
			r.LineageSteps, r.HeadEventsPerSec, r.PinnedEventsPerSec,
			r.ProjectedPerEvent, r.HeadEventsPerSec/r.PinnedEventsPerSec)
	}
}
