package echan

import (
	"errors"
	"net"
	"strings"
	"testing"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/registry"
	"github.com/open-metadata/xmit/internal/transport"
)

// sensorChain builds the three-version "sensor" lineage the view tests
// evolve through: v1 {id, value}, v2 adds unit, v3 adds seq.
func sensorChain(t testing.TB) [3]*meta.Format {
	t.Helper()
	defs := []meta.FieldDef{
		{Name: "id", Kind: meta.Integer, Class: platform.Int},
		{Name: "value", Kind: meta.Float, Class: platform.Double},
		{Name: "unit", Kind: meta.String},
		{Name: "seq", Kind: meta.Unsigned, Class: platform.LongLong},
	}
	var chain [3]*meta.Format
	for i, n := range []int{2, 3, 4} {
		f, err := meta.Build("sensor", platform.X8664, defs[:n])
		if err != nil {
			t.Fatal(err)
		}
		chain[i] = f
	}
	return chain
}

// publishSensor encodes one record under the given lineage version and
// publishes it.
func publishSensor(t testing.TB, ch *Channel, ctx *pbio.Context, f *meta.Format, id int, value float64) {
	t.Helper()
	rec := pbio.NewRecord(f)
	if err := rec.Set("id", id); err != nil {
		t.Fatal(err)
	}
	if err := rec.Set("value", value); err != nil {
		t.Fatal(err)
	}
	msg, err := ctx.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.PublishMessage(f, msg); err != nil {
		t.Fatalf("publish %s: %v", f.Name, err)
	}
}

// TestViewPinnedSubscriber pins v1 while the publisher walks the lineage
// v1 -> v2 -> v3: the pinned subscriber sees exactly one announcement (v1)
// and decodes every event under it; a head subscriber sees each evolution.
func TestViewPinnedSubscriber(t *testing.T) {
	sr := registry.New()
	b := NewBroker(WithRegistry(obs.NewRegistry()), WithSchemaRegistry(sr))
	defer b.Close()
	ch, err := b.Create("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	chain := sensorChain(t)
	pctx := pbio.NewContext(pbio.WithPlatform(platform.X8664))
	for _, f := range chain {
		if _, err := pctx.RegisterFormat(f); err != nil {
			t.Fatal(err)
		}
	}

	// Seed v1 so the lineage resolves before the first publish (publishing
	// registers the same format idempotently).
	if _, err := sr.Register("telemetry", chain[0], "seed"); err != nil {
		t.Fatal(err)
	}

	sink, recv := net.Pipe()
	if _, err := ch.SubscribeVersion(sink, Block, 1); err != nil {
		t.Fatal(err)
	}
	pinned := transport.NewConn(recv, pbio.NewContext())
	defer pinned.Close()
	headConn, _ := subscriberConn(t, ch, pbio.NewContext(), Block)

	publishSensor(t, ch, pctx, chain[0], 1, 1.0)
	publishSensor(t, ch, pctx, chain[1], 2, 2.0) // evolve to v2
	publishSensor(t, ch, pctx, chain[2], 3, 3.0) // evolve to v3

	for i := 1; i <= 3; i++ {
		rec, err := pinned.RecvRecord()
		if err != nil {
			t.Fatalf("pinned recv %d: %v", i, err)
		}
		if got := rec.Format().ID(); got != chain[0].ID() {
			t.Fatalf("event %d decoded as %s, want pinned v1 (%s)", i, got, chain[0].ID())
		}
		if v, _ := rec.Get("id"); v != int64(i) {
			t.Errorf("event %d: id = %v", i, v)
		}
		if v, _ := rec.Get("value"); v != float64(i) {
			t.Errorf("event %d: value = %v", i, v)
		}
		if _, ok := rec.Get("unit"); ok {
			t.Errorf("event %d: unit leaked through the v1 view", i)
		}
	}

	// The head subscriber sees the real wire formats, one per version.
	seen := map[meta.FormatID]bool{}
	for i := 1; i <= 3; i++ {
		rec, err := headConn.RecvRecord()
		if err != nil {
			t.Fatalf("head recv %d: %v", i, err)
		}
		seen[rec.Format().ID()] = true
	}
	for i, f := range chain {
		if !seen[f.ID()] {
			t.Errorf("head subscriber never saw v%d", i+1)
		}
	}

	// Exactly two projections ran: the v2 and v3 events, once each for the
	// one pinned version in use (the v1 event passed through).  The counter
	// counts projections executed, not pinned deliveries — see
	// TestViewProjectionShared for N subscribers and two versions.
	ch.Sync()
	if n := ch.metrics.viewProjected.Value(); n != 2 {
		t.Errorf("view_projected_total = %d, want 2", n)
	}
}

// TestViewHeadPin pins version 0 (the head at SUB time): later evolutions
// are projected *down* to that snapshot.
func TestViewHeadPin(t *testing.T) {
	sr := registry.New()
	b := NewBroker(WithRegistry(obs.NewRegistry()), WithSchemaRegistry(sr))
	defer b.Close()
	ch, err := b.Create("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	chain := sensorChain(t)
	pctx := pbio.NewContext(pbio.WithPlatform(platform.X8664))
	for _, f := range chain {
		if _, err := pctx.RegisterFormat(f); err != nil {
			t.Fatal(err)
		}
	}
	// Seed the lineage at v2 so that's the head the pin snapshots.
	for _, f := range chain[:2] {
		if _, err := sr.Register("telemetry", f, "seed"); err != nil {
			t.Fatal(err)
		}
	}

	sink, recv := net.Pipe()
	if _, err := ch.SubscribeVersion(sink, Block, 0); err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(recv, pbio.NewContext())
	defer conn.Close()

	publishSensor(t, ch, pctx, chain[0], 1, 1.0) // projected up to v2
	publishSensor(t, ch, pctx, chain[1], 2, 2.0) // the pin itself
	publishSensor(t, ch, pctx, chain[2], 3, 3.0) // evolves past the pin

	for i := 1; i <= 3; i++ {
		rec, err := conn.RecvRecord()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Format().ID() != chain[1].ID() {
			t.Fatalf("event %d decoded as %s, want pinned head v2", i, rec.Format().ID())
		}
	}
}

// TestViewErrors pins the failure modes: no registry attached, unknown
// lineage (nothing published yet), and a version past the head.
func TestViewErrors(t *testing.T) {
	plain := NewBroker(WithRegistry(obs.NewRegistry()))
	defer plain.Close()
	ch, err := plain.Create("c")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ch.ResolveView(1); !errors.Is(err, ErrNoSchemaRegistry) {
		t.Fatalf("no registry: %v", err)
	}

	b := NewBroker(WithRegistry(obs.NewRegistry()), WithSchemaRegistry(registry.New()))
	defer b.Close()
	ch2, err := b.Create("c")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ch2.ResolveView(1); !errors.Is(err, registry.ErrUnknownLineage) {
		t.Fatalf("before first publish: %v", err)
	}
	chain := sensorChain(t)
	pctx := pbio.NewContext(pbio.WithPlatform(platform.X8664))
	if _, err := pctx.RegisterFormat(chain[0]); err != nil {
		t.Fatal(err)
	}
	publishSensor(t, ch2, pctx, chain[0], 1, 1.0)
	if _, _, err := ch2.ResolveView(9); !errors.Is(err, registry.ErrUnknownVersion) {
		t.Fatalf("version past head: %v", err)
	}
}

// TestPublishPolicyRejection pins publish-time enforcement: under a backward
// policy, announcing a format that removes a field fails the publish with a
// typed CompatError naming the offending field, and the lineage is unchanged.
func TestPublishPolicyRejection(t *testing.T) {
	reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	b := NewBroker(WithRegistry(obs.NewRegistry()), WithSchemaRegistry(reg))
	defer b.Close()
	ch, err := b.Create("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	chain := sensorChain(t)
	narrowed, err := meta.Build("sensor", platform.X8664, []meta.FieldDef{
		{Name: "id", Kind: meta.Integer, Class: platform.Int},
		{Name: "value", Kind: meta.Float, Class: platform.Float}, // double -> float narrows
	})
	if err != nil {
		t.Fatal(err)
	}
	pctx := pbio.NewContext(pbio.WithPlatform(platform.X8664))
	for _, f := range []*meta.Format{chain[0], chain[1], narrowed} {
		if _, err := pctx.RegisterFormat(f); err != nil {
			t.Fatal(err)
		}
	}
	publishSensor(t, ch, pctx, chain[0], 1, 1.0)
	publishSensor(t, ch, pctx, chain[1], 2, 2.0) // additive: fine

	rec := pbio.NewRecord(narrowed)
	if err := rec.Set("id", 3); err != nil {
		t.Fatal(err)
	}
	msg, err := pctx.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	err = ch.PublishMessage(narrowed, msg)
	var ce *registry.CompatError
	if !errors.As(err, &ce) {
		t.Fatalf("narrowing publish error = %v, want *registry.CompatError", err)
	}
	if len(ce.Violations) == 0 || ce.Violations[0].Path != "value" {
		t.Fatalf("violations = %+v, want the value field named", ce.Violations)
	}
	l, err := reg.Lineage("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Fatalf("lineage advanced to %d versions after a rejected publish", l.Len())
	}
}

// TestLineageVerbs drives LINEAGE / POLICY / SUB version= through the real
// server and client.
func TestLineageVerbs(t *testing.T) {
	reg := registry.New()
	b := NewBroker(WithRegistry(obs.NewRegistry()), WithSchemaRegistry(reg))
	defer b.Close()
	srv := NewServer(b)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctl, err := DialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Create("telemetry"); err != nil {
		t.Fatal(err)
	}

	// Before any publish the lineage does not exist.
	if _, err := ctl.Lineage("telemetry"); err == nil ||
		!strings.Contains(err.Error(), registry.ErrUnknownLineage.Error()) {
		t.Fatalf("LINEAGE before publish: %v", err)
	}
	if err := ctl.SetPolicy("telemetry", registry.PolicyFull); err != nil {
		t.Fatal(err)
	}

	chain := sensorChain(t)
	pctx := pbio.NewContext(pbio.WithPlatform(platform.X8664))
	for _, f := range chain {
		if _, err := pctx.RegisterFormat(f); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := DialPublisher(addr, "telemetry", pctx)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	send := func(f *meta.Format, id int, value float64) {
		t.Helper()
		rec := pbio.NewRecord(f)
		if err := rec.Set("id", id); err != nil {
			t.Fatal(err)
		}
		if err := rec.Set("value", value); err != nil {
			t.Fatal(err)
		}
		if err := pub.SendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Seed v1 so the lineage resolves before the first publish.
	if _, err := reg.Register("telemetry", chain[0], "seed"); err != nil {
		t.Fatal(err)
	}

	// Pin v1 over the wire, then evolve to v2 (additive: passes PolicyFull).
	sub, err := DialSubscriberVersion(addr, "telemetry", Block, 0, 1, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	send(chain[0], 1, 1.0)
	send(chain[1], 2, 2.0)

	for i := 1; i <= 2; i++ {
		rec, err := sub.RecvRecord()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Format().ID() != chain[0].ID() {
			t.Fatalf("event %d decoded as %s, want pinned v1", i, rec.Format().ID())
		}
		if v, _ := rec.Get("id"); v != int64(i) {
			t.Errorf("event %d: id = %v", i, v)
		}
	}

	info, err := ctl.Lineage("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "telemetry" || info.Policy != registry.PolicyFull || len(info.VersionIDs) != 2 {
		t.Fatalf("lineage = %+v", info)
	}
	if info.VersionIDs[0] != uint64(chain[0].ID()) || info.VersionIDs[1] != uint64(chain[1].ID()) {
		t.Fatalf("version IDs = %x, want the chain's", info.VersionIDs)
	}

	// Tightening onto a violating history is refused: build a new lineage
	// whose only step removes a field, then ask for backward compatibility.
	if err := ctl.SetPolicy("telemetry", registry.PolicyNone); err != nil {
		t.Fatal(err)
	}

	// SUB version= past the head fails with a useful ERR.
	if _, err := DialSubscriberVersion(addr, "telemetry", Block, 0, 7, pbio.NewContext()); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("pin past head: %v", err)
	}
}

// TestLineageVerbsNoRegistry: a broker without a schema registry answers the
// registry verbs (and version pins) with a clear ERR instead of hanging.
func TestLineageVerbsNoRegistry(t *testing.T) {
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close() // the server does not own the broker it fronts
	srv := NewServer(b)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctl, err := DialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Create("c"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Lineage("c"); err == nil ||
		!strings.Contains(err.Error(), "no schema registry") {
		t.Fatalf("LINEAGE: %v", err)
	}
	if err := ctl.SetPolicy("c", registry.PolicyBackward); err == nil {
		t.Fatal("POLICY succeeded without a registry")
	}
	if _, err := DialSubscriberVersion(addr, "c", Block, 0, 1, pbio.NewContext()); err == nil {
		t.Fatal("version pin succeeded without a registry")
	}
}

// TestParseLineageCommands pins the grammar of the new verbs and the SUB
// version extension.
func TestParseLineageCommands(t *testing.T) {
	cmd, err := ParseCommand("SUB metrics block 64 version=3 after=10")
	if err != nil {
		t.Fatal(err)
	}
	if !cmd.HasVer || cmd.Version != 3 || !cmd.HasAfter || cmd.After != 10 || cmd.Queue != 64 {
		t.Fatalf("cmd = %+v", cmd)
	}
	cmd, err = ParseCommand("SUB metrics version=0")
	if err != nil || !cmd.HasVer || cmd.Version != 0 {
		t.Fatalf("version=0: %+v, %v", cmd, err)
	}
	if _, err := ParseCommand("SUB metrics version=x"); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := ParseCommand("SUB metrics version=-1"); err == nil {
		t.Fatal("negative version accepted")
	}

	cmd, err = ParseCommand("LINEAGE metrics")
	if err != nil || cmd.Verb != VerbLineage || cmd.Name != "metrics" {
		t.Fatalf("LINEAGE: %+v, %v", cmd, err)
	}
	if _, err := ParseCommand("LINEAGE"); err == nil {
		t.Fatal("LINEAGE without a channel accepted")
	}
	cmd, err = ParseCommand("POLICY metrics backward_transitive")
	if err != nil || cmd.Verb != VerbPolicy || cmd.Compat != registry.PolicyBackwardTransitive {
		t.Fatalf("POLICY: %+v, %v", cmd, err)
	}
	if _, err := ParseCommand("POLICY metrics sideways"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
