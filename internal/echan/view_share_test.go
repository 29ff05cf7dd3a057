package echan

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/registry"
	"github.com/open-metadata/xmit/internal/transport"
)

// The tests here pin the sharing contract of pinned views: a projection
// runs once per (event, pinned version) and every subscriber of that version
// — live, resumed, derived — is handed the same memoised frame, which is
// released with the event.

// seenFrame is one data frame as a captureSink saw it: where its bytes
// lived (to tell a shared buffer from a copy) and what they were.
type seenFrame struct {
	at   *byte
	gen  uint64
	data []byte
}

// captureSink is an in-process Sink recording everything it is handed.
type captureSink struct {
	mu      sync.Mutex
	formats [][]byte
	frames  []seenFrame
	preAnn  int // data frames that arrived before any announcement
}

func (c *captureSink) WriteFormat(frame []byte) error {
	c.mu.Lock()
	c.formats = append(c.formats, append([]byte(nil), frame...))
	c.mu.Unlock()
	return nil
}

func (c *captureSink) WriteEvents(gens []uint64, _ uint64, frames [][]byte) error {
	c.mu.Lock()
	for i, frame := range frames {
		if len(c.formats) == 0 {
			c.preAnn++
		}
		c.frames = append(c.frames, seenFrame{at: &frame[0], gen: gens[i], data: append([]byte(nil), frame...)})
	}
	c.mu.Unlock()
	return nil
}

func (c *captureSink) snapshot() []seenFrame {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]seenFrame(nil), c.frames...)
}

// sensorBroker builds a broker whose "telemetry" lineage already holds the
// whole sensor chain, so any version can be pinned before the first publish.
func sensorBroker(t testing.TB, opts ...ChannelOption) (*Broker, *Channel, [3]*meta.Format, *pbio.Context) {
	t.Helper()
	sr := registry.New()
	b := NewBroker(WithRegistry(obs.NewRegistry()), WithSchemaRegistry(sr))
	t.Cleanup(func() { b.Close() })
	ch, err := b.Create("telemetry", opts...)
	if err != nil {
		t.Fatal(err)
	}
	chain := sensorChain(t)
	pctx := pbio.NewContext(pbio.WithPlatform(platform.X8664))
	for _, f := range chain {
		if _, err := pctx.RegisterFormat(f); err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Register("telemetry", f, "seed"); err != nil {
			t.Fatal(err)
		}
	}
	return b, ch, chain, pctx
}

func pinSink(t testing.TB, ch *Channel, version int, policy Policy, opts ...SubOption) *captureSink {
	t.Helper()
	c := &captureSink{}
	if _, err := ch.SubscribeVersionSink(c, policy, version, opts...); err != nil {
		t.Fatal(err)
	}
	return c
}

// frameID is the PBIO format ID a data frame carries.
func frameID(t testing.TB, frame []byte) meta.FormatID {
	t.Helper()
	id, _, err := pbio.ParseHeader(frame[transport.FrameHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// wantProjected checks a pinned sink's frame against the reference path:
// decode the published event, registry.Project it, re-encode.
func wantProjected(t testing.TB, ctx *pbio.Context, src, dst *meta.Format, id int, value float64) []byte {
	t.Helper()
	rec := pbio.NewRecord(src)
	rec.Set("id", id)
	rec.Set("value", value)
	proj, err := registry.Project(rec, dst)
	if err != nil {
		t.Fatal(err)
	}
	body, err := ctx.EncodeRecordBody(pbio.AppendHeader(nil, dst.ID()), proj)
	if err != nil {
		t.Fatal(err)
	}
	return transport.AppendFrame(nil, transport.FrameData, body)
}

// TestViewProjectionShared: N subscribers on one version cost one projection
// per event and share its buffer; a second version doubles it; an event
// already in the pinned version costs none and shares the publisher's buffer.
func TestViewProjectionShared(t *testing.T) {
	_, ch, chain, pctx := sensorBroker(t)
	head := &captureSink{}
	if _, err := ch.SubscribeSink(head, Block); err != nil {
		t.Fatal(err)
	}
	var v1 [4]*captureSink
	for i := range v1 {
		v1[i] = pinSink(t, ch, 1, Block)
	}
	projected := func() int64 { ch.Sync(); return ch.metrics.viewProjected.Value() }

	const events = 5
	for i := 1; i <= events; i++ {
		publishSensor(t, ch, pctx, chain[2], i, float64(i))
	}
	if n := projected(); n != events {
		t.Fatalf("4 subscribers on one version: view_projected_total = %d, want %d", n, events)
	}
	headFrames := head.snapshot()
	for i := 0; i < events; i++ {
		want := wantProjected(t, pctx, chain[2], chain[0], i+1, float64(i+1))
		first := v1[0].snapshot()[i]
		if first.at == headFrames[i].at {
			t.Fatalf("event %d: pinned frame aliases the head frame", i+1)
		}
		for s, c := range v1 {
			f := c.snapshot()[i]
			if f.at != first.at {
				t.Errorf("event %d: subscriber %d got its own copy of the projected frame", i+1, s)
			}
			if !bytes.Equal(f.data, want) {
				t.Errorf("event %d: subscriber %d frame %x, want %x", i+1, s, f.data, want)
			}
			if f.gen != headFrames[i].gen {
				t.Errorf("event %d: gen %d, head saw %d", i+1, f.gen, headFrames[i].gen)
			}
		}
	}

	v2 := pinSink(t, ch, 2, Block)
	for i := 1; i <= events; i++ {
		publishSensor(t, ch, pctx, chain[2], events+i, 0)
	}
	if n := projected(); n != 3*events {
		t.Fatalf("two pinned versions: view_projected_total = %d, want %d", n, 3*events)
	}
	if id := frameID(t, v2.snapshot()[0].data); id != chain[1].ID() {
		t.Errorf("v2 subscriber got format %s", id)
	}

	// An event in a pinned version passes through to that version's
	// subscribers on the publisher's own buffer.
	publishSensor(t, ch, pctx, chain[0], 99, 9.9)
	if n := projected(); n != 3*events+1 { // only v2's projection
		t.Fatalf("pass-through event: view_projected_total = %d, want %d", n, 3*events+1)
	}
	last := head.snapshot()[2*events]
	for s, c := range v1 {
		if f := c.snapshot()[2*events]; f.at != last.at || !bytes.Equal(f.data, last.data) {
			t.Errorf("subscriber %d: pass-through frame is not the publisher's buffer", s)
		}
	}
	for _, c := range append(v1[:], v2) {
		if len(c.formats) != 1 || c.preAnn != 0 {
			t.Errorf("pinned sink saw %d announcements (%d frames before the first), want exactly 1 up front",
				len(c.formats), c.preAnn)
		}
	}
}

// TestViewResumeReplaysProjected: a pinned subscriber resuming with SubAfter
// is replayed the retained events it missed, projected, exactly once, and
// continues into the live stream without a seam.
func TestViewResumeReplaysProjected(t *testing.T) {
	_, ch, chain, pctx := sensorBroker(t, WithRetain(16))
	for i := 1; i <= 6; i++ {
		publishSensor(t, ch, pctx, chain[2], i, float64(i))
	}
	live := pinSink(t, ch, 1, Block) // attached before the resumer: shares what it projects
	resumed := pinSink(t, ch, 1, Block, SubAfter(2))
	for i := 7; i <= 9; i++ {
		publishSensor(t, ch, pctx, chain[2], i, float64(i))
	}
	ch.Sync()
	frames := resumed.snapshot()
	if len(frames) != 7 {
		t.Fatalf("resumed subscriber saw %d events, want 7 (gens 3..9)", len(frames))
	}
	for k, f := range frames {
		id := k + 3
		if f.gen != uint64(id) {
			t.Fatalf("event %d has gen %d, want %d", k, f.gen, id)
		}
		if want := wantProjected(t, pctx, chain[2], chain[0], id, float64(id)); !bytes.Equal(f.data, want) {
			t.Errorf("gen %d: replayed frame %x, want %x", id, f.data, want)
		}
	}
	// Gens 3..6 were projected for the replay, 7..9 once for both sinks.
	if n := ch.metrics.viewProjected.Value(); n != 7 {
		t.Errorf("view_projected_total = %d, want 7", n)
	}
	liveFrames := live.snapshot()
	for k := range liveFrames {
		if liveFrames[k].at != frames[4+k].at {
			t.Errorf("live event %d: resumed and live subscribers hold different buffers", k)
		}
	}
}

// TestViewOnDerivedChannel: a pinned subscription on a derived channel sees
// the filtered stream under its version, and shares each event's projected
// frame with the parent's subscribers of that version.
func TestViewOnDerivedChannel(t *testing.T) {
	b, ch, chain, pctx := sensorBroker(t)
	hot, err := b.Derive("hot", "telemetry", MustFilter("id >= 3"))
	if err != nil {
		t.Fatal(err)
	}
	parent := pinSink(t, ch, 1, Block)
	child := pinSink(t, hot, 1, Block)
	for i := 1; i <= 5; i++ {
		publishSensor(t, ch, pctx, chain[2], i, float64(i))
	}
	ch.Sync()
	pf, cf := parent.snapshot(), child.snapshot()
	if len(pf) != 5 || len(cf) != 3 {
		t.Fatalf("parent saw %d events, derived saw %d; want 5 and 3", len(pf), len(cf))
	}
	for k, f := range cf {
		if frameID(t, f.data) != chain[0].ID() {
			t.Errorf("derived event %d is not in the pinned format", k)
		}
		if f.at != pf[k+2].at {
			t.Errorf("derived event %d: parent and derived subscribers hold different buffers", k)
		}
	}
	total := ch.metrics.viewProjected.Value() + hot.metrics.viewProjected.Value()
	if total != 5 {
		t.Errorf("projections across parent and derived = %d, want 5 (one per event)", total)
	}
}

// poolBalance reads the process-wide pbio pool counters.
func poolBalance() (gets, puts float64) {
	gets, _ = obs.Default().Value("pbio_pool_get_total")
	puts, _ = obs.Default().Value("pbio_pool_put_total")
	return gets, puts
}

// stallSink blocks every write until released, so queues fill and the drop
// policies and Close have something to discard.
type stallSink struct {
	captureSink
	gate chan struct{}
}

func (s *stallSink) WriteEvents(gens []uint64, head uint64, frames [][]byte) error {
	<-s.gate
	return s.captureSink.WriteEvents(gens, head, frames)
}

// TestViewBuffersReleased: events dropped from pinned subscribers' queues
// and a Channel.Close in the middle of a burst return every buffer — the
// publisher's and the memoised projections — exactly once.
func TestViewBuffersReleased(t *testing.T) {
	gets0, puts0 := poolBalance()
	_, ch, chain, pctx := sensorBroker(t, WithQueue(4), WithRetain(8))
	stalled := &stallSink{gate: make(chan struct{})}
	if _, err := ch.SubscribeVersionSink(stalled, DropOldest, 1); err != nil {
		t.Fatal(err)
	}
	dropNewest := &stallSink{gate: stalled.gate}
	if _, err := ch.SubscribeVersionSink(dropNewest, DropNewest, 2); err != nil {
		t.Fatal(err)
	}
	free := pinSink(t, ch, 1, Block)
	for i := 1; i <= 64; i++ {
		publishSensor(t, ch, pctx, chain[2], i, float64(i))
	}
	waitFor(t, "the free subscriber to drain", func() bool { return len(free.snapshot()) == 64 })
	if st := ch.Stats(); st.DroppedOldest == 0 || st.DroppedNewest == 0 {
		t.Fatalf("stats %+v: the stalled subscribers dropped nothing", st)
	}
	// Close with the stalled writers mid-write and their queues, the
	// retention ring and the fan-out ring all holding projected events.
	done := make(chan struct{})
	go func() { ch.Close(); close(done) }()
	close(stalled.gate)
	<-done
	waitFor(t, "every pooled buffer to come back", func() bool {
		gets, puts := poolBalance()
		return gets-gets0 == puts-puts0
	})
	if gets, puts := poolBalance(); puts-puts0 > gets-gets0 {
		t.Errorf("pool puts %v exceed gets %v (double release)", puts-puts0, gets-gets0)
	}
}

// TestViewConcurrentPublishers drives a channel with concurrent publishers
// and pinned subscribers on two versions, the writers of the queued ones
// running beside the fan-out worker; run under -race it is the check that
// memoisation on a shared event is properly synchronised.
func TestViewConcurrentPublishers(t *testing.T) {
	_, ch, chain, pctx := sensorBroker(t, WithQueue(64))
	var sinks []*captureSink
	for i := 0; i < 8; i++ {
		sinks = append(sinks, pinSink(t, ch, 1+i%2, Block))
	}
	const publishers, each = 4, 200
	msgs := make([][]byte, publishers)
	for p := range msgs {
		rec := pbio.NewRecord(chain[2])
		rec.Set("id", p)
		var err error
		if msgs[p], err = pctx.EncodeRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(msg []byte) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := ch.PublishMessage(chain[2], msg); err != nil {
					t.Error(err)
					return
				}
			}
		}(msgs[p])
	}
	wg.Wait()
	ch.Sync()
	for i, c := range sinks {
		frames := c.snapshot()
		if len(frames) != publishers*each {
			t.Fatalf("sink %d saw %d events, want %d", i, len(frames), publishers*each)
		}
		want := chain[i%2].ID()
		for _, f := range frames {
			if frameID(t, f.data) != want {
				t.Fatalf("sink %d pinned to v%d got a frame in format %s", i, 1+i%2, frameID(t, f.data))
			}
		}
	}
	if n := ch.metrics.viewProjected.Value(); n != 2*publishers*each {
		t.Errorf("view_projected_total = %d, want %d (two versions x events)", n, 2*publishers*each)
	}
}

// TestViewProjectionRefused: a step no plan can take (float to string,
// admitted only by PolicyNone) detaches the pinned subscriber with an error
// naming the field, on the first event that needs it.
func TestViewProjectionRefused(t *testing.T) {
	sr := registry.New()
	b := NewBroker(WithRegistry(obs.NewRegistry()), WithSchemaRegistry(sr))
	defer b.Close()
	ch, err := b.Create("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	v1 := sensorChain(t)[0]
	v2, err := meta.Build("sensor", platform.X8664, []meta.FieldDef{
		{Name: "id", Kind: meta.Integer, Class: platform.Int},
		{Name: "value", Kind: meta.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	pctx := pbio.NewContext(pbio.WithPlatform(platform.X8664))
	for _, f := range []*meta.Format{v1, v2} {
		if _, err := pctx.RegisterFormat(f); err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Register("telemetry", f, "seed"); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := ch.SubscribeVersionSink(&captureSink{}, Block, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := pbio.NewRecord(v2)
	rec.Set("id", 1)
	msg, err := pctx.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.PublishMessage(v2, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the subscriber to detach", func() bool { return sub.Err() != nil })
	if got := sub.Err().Error(); !strings.Contains(got, `field "value"`) {
		t.Errorf("detach error %q does not name the field", got)
	}
}

// TestPinnedDeliveryAllocs is the steady-state gate: publishing to three
// pinned and one head in-process sinks allocates nothing per event — the
// plan runs into a pooled buffer and the memo slot is reused with the event.
func TestPinnedDeliveryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	_, ch, chain, pctx := sensorBroker(t)
	if _, err := ch.SubscribeSink(discardSink{}, Block); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ch.SubscribeVersionSink(discardSink{}, Block, 1); err != nil {
			t.Fatal(err)
		}
	}
	rec := pbio.NewRecord(chain[2])
	rec.Set("id", 7)
	rec.Set("unit", "kelvin")
	msg, err := pctx.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	publish := func() {
		if err := ch.PublishMessage(chain[2], msg); err != nil {
			t.Error(err)
		}
		ch.Sync()
	}
	for i := 0; i < 200; i++ {
		publish()
	}
	if n := testing.AllocsPerRun(200, publish); n != 0 {
		t.Errorf("publish to 3 pinned + 1 head sinks: %v allocs/op, want 0", n)
	}
	if got, want := ch.metrics.viewProjected.Value(), ch.Stats().Published; got != want {
		t.Errorf("view_projected_total = %d, want %d (one per event)", got, want)
	}
}

// discardSink is the cheapest possible in-process Sink.
type discardSink struct{}

func (discardSink) WriteFormat([]byte) error                     { return nil }
func (discardSink) WriteEvents([]uint64, uint64, [][]byte) error { return nil }
