package echan

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/open-metadata/xmit/internal/fmtserver"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/transport"
)

// Event is the test payload: a timestep plus a reading.
type Event struct {
	Seq  int32
	Temp float64
}

func eventBinding(t testing.TB, p *platform.Platform) (*pbio.Context, *pbio.Binding) {
	t.Helper()
	ctx := pbio.NewContext(pbio.WithPlatform(p))
	f, err := ctx.RegisterFields("Event", []pbio.IOField{
		{Name: "seq", Type: "integer"},
		{Name: "temp", Type: "double"},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Bind(f, &Event{})
	if err != nil {
		t.Fatal(err)
	}
	return ctx, b
}

// subscriberConn attaches a transport.Conn subscriber to a channel via an
// in-process pipe and returns the receiving side.
func subscriberConn(t testing.TB, ch *Channel, rctx *pbio.Context, policy Policy, opts ...SubOption) (*transport.Conn, *Subscription) {
	t.Helper()
	sink, recv := net.Pipe()
	sub, err := ch.Subscribe(sink, policy, opts...)
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(recv, rctx)
	t.Cleanup(func() { conn.Close() })
	return conn, sub
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPubSubBasic(t *testing.T) {
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	ch, err := b.Create("weather")
	if err != nil {
		t.Fatal(err)
	}
	_, bind := eventBinding(t, platform.Sparc32)
	conn, _ := subscriberConn(t, ch, pbio.NewContext(), Block)

	go func() {
		for i := 1; i <= 3; i++ {
			if err := ch.Publish(bind, &Event{Seq: int32(i), Temp: float64(10 * i)}); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 1; i <= 3; i++ {
		var out Event
		f, err := conn.Recv(&out)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name != "Event" || out.Seq != int32(i) || out.Temp != float64(10*i) {
			t.Errorf("message %d: format %q payload %+v", i, f.Name, out)
		}
	}
	ch.Sync()
	st := ch.Stats()
	if st.Published != 3 || st.Delivered != 3 || st.Subscribers != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestLateJoinerInBand pins the mid-stream join contract: a subscriber that
// attaches after formats were announced still receives every announcement
// before its first data frame and decodes without a missing-format error.
func TestLateJoinerInBand(t *testing.T) {
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	ch, err := b.Create("stream")
	if err != nil {
		t.Fatal(err)
	}
	_, bind := eventBinding(t, platform.Sparc32)

	early, _ := subscriberConn(t, ch, pbio.NewContext(), Block)
	go ch.Publish(bind, &Event{Seq: 1})
	go ch.Publish(bind, &Event{Seq: 2})
	var out Event
	for i := 0; i < 2; i++ {
		if _, err := early.Recv(&out); err != nil {
			t.Fatal(err)
		}
	}
	ch.Sync()

	// The late joiner has a completely fresh context: only the channel's
	// replayed announcements can make the stream decodable.
	late, _ := subscriberConn(t, ch, pbio.NewContext(), Block)
	go ch.Publish(bind, &Event{Seq: 3, Temp: 30})
	f, err := late.Recv(&out)
	if err != nil {
		t.Fatalf("late joiner decode: %v", err)
	}
	if f.Name != "Event" || out.Seq != 3 || out.Temp != 30 {
		t.Errorf("late joiner got format %q payload %+v", f.Name, out)
	}
	if n := late.Stats().FormatsLearned; n != 1 {
		t.Errorf("late joiner learned %d formats, want 1", n)
	}
	// The early subscriber must not be re-announced to.
	if _, err := early.Recv(&out); err != nil || out.Seq != 3 {
		t.Fatalf("early subscriber: %v %+v", err, out)
	}
	if n := early.Stats().FormatsLearned; n != 1 {
		t.Errorf("early subscriber learned %d formats, want 1", n)
	}
}

// TestLateJoinerOutOfBand runs the same join through the format-server path:
// the channel writes no announcements; the broker registers formats with the
// registry and the subscriber's context resolves IDs from it.
func TestLateJoinerOutOfBand(t *testing.T) {
	fsReg := fmtserver.NewRegistry()
	b := NewBroker(
		WithRegistry(obs.NewRegistry()),
		WithFormatRegistrar(func(f *meta.Format) error {
			_, err := fsReg.Register(f)
			return err
		}),
	)
	defer b.Close()
	ch, err := b.Create("stream", WithOutOfBand())
	if err != nil {
		t.Fatal(err)
	}
	_, bind := eventBinding(t, platform.Sparc32)

	// Publish before anyone subscribes, so the format reaches the registry.
	if err := ch.Publish(bind, &Event{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if len(fsReg.IDs()) != 1 {
		t.Fatalf("registrar stored %d formats, want 1", len(fsReg.IDs()))
	}

	late, _ := subscriberConn(t, ch, pbio.NewContext(pbio.WithResolver(fsReg)), Block)
	go ch.Publish(bind, &Event{Seq: 2, Temp: 20})
	var out Event
	f, err := late.Recv(&out)
	if err != nil {
		t.Fatalf("out-of-band late joiner decode: %v", err)
	}
	if f.Name != "Event" || out.Seq != 2 || out.Temp != 20 {
		t.Errorf("got format %q payload %+v", f.Name, out)
	}
	if n := late.Stats().FormatsLearned; n != 0 {
		t.Errorf("out-of-band subscriber saw %d announcement frames, want 0", n)
	}

	// Without a resolver the stream must be undecodable — proving the data
	// path really carries no metadata.
	blind, _ := subscriberConn(t, ch, pbio.NewContext(), Block)
	go ch.Publish(bind, &Event{Seq: 3})
	if _, err := blind.Recv(&out); err == nil {
		t.Error("resolver-less subscriber decoded an out-of-band stream")
	}
}

func TestDropOldestPolicy(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBroker(WithRegistry(reg))
	defer b.Close()
	ch, err := b.Create("drops")
	if err != nil {
		t.Fatal(err)
	}
	_, bind := eventBinding(t, platform.X8664)
	conn, _ := subscriberConn(t, ch, pbio.NewContext(), DropOldest, SubQueue(2))

	// Event 1 is popped and its write blocks on the unread pipe; events 2-3
	// fill the queue; 4 evicts 2, 5 evicts 3.  "In flight" means the shard
	// worker has offered it (ShardDepth 0) and the writer popped it
	// (Depth 0) — only then is the queue's eviction arithmetic pinned.
	if err := ch.Publish(bind, &Event{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "event 1 in flight", func() bool {
		st := ch.Stats()
		return st.ShardDepth == 0 && st.Depth == 0
	})
	for i := 2; i <= 5; i++ {
		if err := ch.Publish(bind, &Event{Seq: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "two evictions", func() bool { return ch.Stats().DroppedOldest == 2 })

	var got []int32
	for i := 0; i < 3; i++ {
		var out Event
		if _, err := conn.Recv(&out); err != nil {
			t.Fatal(err)
		}
		got = append(got, out.Seq)
	}
	if got[0] != 1 || got[1] != 4 || got[2] != 5 {
		t.Errorf("received %v, want [1 4 5]", got)
	}
	ch.Sync()
	st := ch.Stats()
	if st.Published != 5 || st.Delivered != 3 || st.DroppedOldest != 2 || st.DroppedNewest != 0 {
		t.Errorf("stats %+v", st)
	}

	// The drop counter must be visible through the registry's /metrics text.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "echan_drops_dropped_oldest_total 2") {
		t.Errorf("metrics text missing drop counter:\n%s", sb.String())
	}
}

func TestDropNewestPolicy(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBroker(WithRegistry(reg))
	defer b.Close()
	ch, err := b.Create("rejects")
	if err != nil {
		t.Fatal(err)
	}
	_, bind := eventBinding(t, platform.X8664)
	conn, _ := subscriberConn(t, ch, pbio.NewContext(), DropNewest, SubQueue(2))

	if err := ch.Publish(bind, &Event{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "event 1 in flight", func() bool {
		st := ch.Stats()
		return st.ShardDepth == 0 && st.Depth == 0
	})
	for i := 2; i <= 5; i++ {
		if err := ch.Publish(bind, &Event{Seq: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Publish hands events to the shard ring; the drops happen on the shard
	// worker's offer loop, so wait for it to work through the burst.
	waitFor(t, "two rejections", func() bool { return ch.Stats().DroppedNewest == 2 })

	var got []int32
	for i := 0; i < 3; i++ {
		var out Event
		if _, err := conn.Recv(&out); err != nil {
			t.Fatal(err)
		}
		got = append(got, out.Seq)
	}
	// DropNewest keeps the uninterrupted prefix.
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("received %v, want [1 2 3]", got)
	}
	if v, ok := reg.Value("echan_rejects_dropped_newest_total"); !ok || v != 2 {
		t.Errorf("metrics drop counter = %v (ok=%v), want 2", v, ok)
	}
}

// TestDefaultQueue: WithDefaultQueue sets the queue a subscriber gets when
// it asks for none (echod's -queue).  A stalled DropNewest subscriber holds
// one event in flight plus a full queue and rejects the rest of a burst.
func TestDefaultQueue(t *testing.T) {
	_, bind := eventBinding(t, platform.X8664)
	for _, q := range []int{2, 3} {
		b := NewBroker(WithRegistry(obs.NewRegistry()), WithDefaultQueue(q))
		defer b.Close()
		ch, err := b.Create("burst")
		if err != nil {
			t.Fatal(err)
		}
		subscriberConn(t, ch, pbio.NewContext(), DropNewest)
		if err := ch.Publish(bind, &Event{Seq: 1}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "event 1 in flight", func() bool {
			st := ch.Stats()
			return st.ShardDepth == 0 && st.Depth == 0
		})
		const burst = 5
		for i := 2; i <= 1+burst; i++ {
			if err := ch.Publish(bind, &Event{Seq: int32(i)}); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "the burst to be offered", func() bool { return ch.Stats().ShardDepth == 0 })
		if st := ch.Stats(); st.Depth != int64(q) || st.DroppedNewest != int64(burst-q) {
			t.Errorf("default queue %d: depth %d, dropped %d; want %d, %d", q, st.Depth, st.DroppedNewest, q, burst-q)
		}
	}
}

func TestBlockPolicy(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBroker(WithRegistry(reg))
	defer b.Close()
	// A one-slot fan-out ring plus a one-slot subscriber queue pins the
	// end-to-end pipeline capacity exactly: ev1 with the writer (its write
	// blocked on the unread pipe), ev2 in the subscriber queue, ev3 held by
	// the fan-out worker blocked in its Block-policy offer, ev4 in the
	// ring.  Publish 5 must then block on the full ring until the reader
	// drains — backpressure reaches the publisher transitively.
	ch, err := b.Create("lossless", WithQueue(1))
	if err != nil {
		t.Fatal(err)
	}
	_, bind := eventBinding(t, platform.X8664)
	conn, _ := subscriberConn(t, ch, pbio.NewContext(), Block, SubQueue(1))

	for i := 1; i <= 4; i++ {
		if err := ch.Publish(bind, &Event{Seq: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "fan-out worker blocked in offer", func() bool { return ch.Stats().BlockWaits >= 1 })
	pubDone := make(chan error, 1)
	go func() { pubDone <- ch.Publish(bind, &Event{Seq: 5}) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-pubDone:
		t.Fatalf("publish returned (%v) while the pipeline was full", err)
	default:
	}

	var got []int32
	for i := 0; i < 5; i++ {
		var out Event
		if _, err := conn.Recv(&out); err != nil {
			t.Fatal(err)
		}
		got = append(got, out.Seq)
	}
	if err := <-pubDone; err != nil {
		t.Fatal(err)
	}
	for i, want := range []int32{1, 2, 3, 4, 5} {
		if got[i] != want {
			t.Fatalf("received %v, want [1 2 3 4 5] (lossless, in order)", got)
		}
	}
	ch.Sync()
	st := ch.Stats()
	if st.Delivered != 5 || st.DroppedOldest != 0 || st.DroppedNewest != 0 {
		t.Errorf("stats %+v", st)
	}
	if v, ok := reg.Value("echan_lossless_block_waits_total"); !ok || v < 1 {
		t.Errorf("metrics block counter = %v (ok=%v), want >= 1", v, ok)
	}
}

func TestDerivedChannelFilter(t *testing.T) {
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	raw, err := b.Create("raw")
	if err != nil {
		t.Fatal(err)
	}
	hot, err := b.Derive("hot", "raw", MustFilter("temp >= 30"))
	if err != nil {
		t.Fatal(err)
	}
	_, bind := eventBinding(t, platform.Sparc32)

	rawConn, _ := subscriberConn(t, raw, pbio.NewContext(), Block)
	hotConn, _ := subscriberConn(t, hot, pbio.NewContext(), Block)

	go func() {
		for i := 1; i <= 5; i++ {
			if err := raw.Publish(bind, &Event{Seq: int32(i), Temp: float64(10 * i)}); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 1; i <= 5; i++ {
		var out Event
		if _, err := rawConn.Recv(&out); err != nil {
			t.Fatal(err)
		}
		if out.Seq != int32(i) {
			t.Errorf("raw message %d: %+v", i, out)
		}
	}
	// The derived channel sees only temp >= 30: events 3, 4, 5 — and its
	// stream decodes, meaning format announcements propagated through the
	// shared table.
	for _, want := range []int32{3, 4, 5} {
		var out Event
		if _, err := hotConn.Recv(&out); err != nil {
			t.Fatal(err)
		}
		if out.Seq != want || out.Temp < 30 {
			t.Errorf("derived stream got %+v, want seq %d", out, want)
		}
	}
	raw.Sync()
	if st := hot.Stats(); st.Published != 3 || st.Delivered != 3 {
		t.Errorf("derived stats %+v", st)
	}

	// Contract errors.
	if err := hot.Publish(bind, &Event{}); !errors.Is(err, ErrDerivedChannel) {
		t.Errorf("publish to derived channel: %v", err)
	}
	if _, err := b.Derive("hotter", "hot", MustFilter("temp >= 40")); !errors.Is(err, ErrDeriveOfDerived) {
		t.Errorf("derive of derived: %v", err)
	}
	if _, err := b.Derive("x", "nope", MustFilter("temp > 0")); !errors.Is(err, ErrNoChannel) {
		t.Errorf("derive of missing parent: %v", err)
	}
}

// TestDeriveOfClosedChannel: a closed channel's worker has exited, so a
// channel derived from it could never deliver.  Derive refuses, and the
// refused name stays free.
func TestDeriveOfClosedChannel(t *testing.T) {
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	raw, err := b.Create("raw")
	if err != nil {
		t.Fatal(err)
	}
	raw.Close()
	if _, err := b.Derive("hot", "raw", MustFilter("temp >= 30")); !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("derive of closed parent: %v, want ErrChannelClosed", err)
	}
	if _, err := b.Create("hot"); err != nil {
		t.Errorf("name of the refused derive is taken: %v", err)
	}
}

// TestFanout64AllocFree pins the acceptance criterion: one publisher fanning
// out to 64 subscribers allocates nothing per event once pools and plans are
// warm — encode once into a pooled frame, hand the same bytes to every
// queue.
func TestFanout64AllocFree(t *testing.T) {
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	ch, err := b.Create("fan", WithQueue(128))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := ch.Subscribe(io.Discard, Block); err != nil {
			t.Fatal(err)
		}
	}
	_, bind := eventBinding(t, platform.X8664)
	ev := &Event{Seq: 7, Temp: 42.5}

	for i := 0; i < 200; i++ {
		if err := ch.Publish(bind, ev); err != nil {
			t.Fatal(err)
		}
	}
	ch.Sync()

	if n := testing.AllocsPerRun(100, func() {
		if err := ch.Publish(bind, ev); err != nil {
			t.Error(err)
		}
		ch.Sync()
	}); n != 0 {
		t.Errorf("fan-out to 64 subscribers: %v allocs/op, want 0", n)
	}
	if st := ch.Stats(); st.Delivered != st.Published*64 {
		t.Errorf("delivered %d, want %d", st.Delivered, st.Published*64)
	}
}

func TestBrokerLifecycleAndValidation(t *testing.T) {
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	if _, err := b.Create("bad name"); err == nil {
		t.Error("accepted a channel name with a space")
	}
	if _, err := b.Create(strings.Repeat("x", 129)); err == nil {
		t.Error("accepted a 129-byte channel name")
	}
	ch, err := b.Create("a.b-c_d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Create("a.b-c_d"); !errors.Is(err, ErrChannelExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if got, err := b.GetOrCreate("a.b-c_d"); err != nil || got != ch {
		t.Errorf("GetOrCreate returned %v, %v", got, err)
	}
	if _, ok := b.Get("missing"); ok {
		t.Error("Get found a channel that was never created")
	}
	if n := len(b.Channels()); n != 1 {
		t.Errorf("Channels() = %d entries, want 1", n)
	}

	_, bind := eventBinding(t, platform.X8664)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ch.Publish(bind, &Event{}); !errors.Is(err, ErrChannelClosed) {
		t.Errorf("publish after close: %v", err)
	}
	if _, err := ch.Subscribe(io.Discard, Block); !errors.Is(err, ErrChannelClosed) {
		t.Errorf("subscribe after close: %v", err)
	}
	if _, err := b.Create("later"); !errors.Is(err, ErrChannelClosed) {
		t.Errorf("create after broker close: %v", err)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{Block, DropOldest, DropNewest} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip of %v: %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("lossy"); err == nil {
		t.Error("ParsePolicy accepted an unknown name")
	}
}

// TestSubscriberFailureDetaches: a sink whose writes fail is removed from
// the channel without disturbing other subscribers.
func TestSubscriberFailureDetaches(t *testing.T) {
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	ch, err := b.Create("resilient")
	if err != nil {
		t.Fatal(err)
	}
	_, bind := eventBinding(t, platform.X8664)

	bad, _ := net.Pipe()
	bad.Close() // writes will fail immediately
	badSub, err := ch.Subscribe(bad, Block)
	if err != nil {
		t.Fatal(err)
	}
	goodConn, _ := subscriberConn(t, ch, pbio.NewContext(), Block)

	go ch.Publish(bind, &Event{Seq: 1})
	var out Event
	if _, err := goodConn.Recv(&out); err != nil || out.Seq != 1 {
		t.Fatalf("healthy subscriber: %v %+v", err, out)
	}
	waitFor(t, "failed subscriber detach", func() bool { return ch.Stats().Subscribers == 1 })
	if badSub.Err() == nil {
		t.Error("failed subscription reports no error")
	}

	// The channel keeps working for the survivor.
	go ch.Publish(bind, &Event{Seq: 2})
	if _, err := goodConn.Recv(&out); err != nil || out.Seq != 2 {
		t.Fatalf("after detach: %v %+v", err, out)
	}
}

func TestPublishOpaque(t *testing.T) {
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	ch, err := b.Create("xmlfeed")
	if err != nil {
		t.Fatal(err)
	}
	sink, recv := net.Pipe()
	if _, err := ch.Subscribe(sink, Block); err != nil {
		t.Fatal(err)
	}
	payload := []byte("<event seq='1'/>")
	go func() {
		if err := ch.PublishOpaque(payload); err != nil {
			t.Error(err)
		}
	}()
	hdr := make([]byte, transport.FrameHeaderSize)
	if _, err := io.ReadFull(recv, hdr); err != nil {
		t.Fatal(err)
	}
	if hdr[4] != transport.FrameData {
		t.Errorf("frame kind %d, want FrameData", hdr[4])
	}
	body := make([]byte, len(payload))
	if _, err := io.ReadFull(recv, body); err != nil {
		t.Fatal(err)
	}
	if string(body) != string(payload) {
		t.Errorf("payload %q, want %q", body, payload)
	}
	recv.Close()
}
