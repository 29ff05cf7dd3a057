package echan

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/platform"
)

// Direct drain: a caught-up in-process Block subscriber's sink runs on the
// shard worker; the queue and the writer goroutine serve everything else.
// These tests drive the hand-offs between the two with gated sinks — every
// wait below is for a token a goroutine sends, never for time to pass.

// onShardWorker reports whether the caller is running on a shard's worker
// goroutine (as opposed to a subscription's writer).
func onShardWorker() bool {
	var pcs [64]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "(*shard).run") {
			return true
		}
		if !more {
			return false
		}
	}
}

// stepSink is a captureSink a test can park inside a call, fail at a chosen
// generation, and ask which goroutine delivered each frame.
type stepSink struct {
	captureSink
	direct []bool // per recorded data frame: delivered on the shard worker; under captureSink.mu

	hold    atomic.Bool   // while set, every WriteEvents parks until released
	entered chan struct{} // one token per parked call
	release chan struct{}
	exited  atomic.Int32 // WriteEvents calls that have returned

	failGen    uint64 // a run reaching this generation fails (0: never)
	failDirect atomic.Bool
}

var errSinkBroke = errors.New("sink broke")

func newStepSink() *stepSink {
	return &stepSink{entered: make(chan struct{}, 1), release: make(chan struct{}, 1)}
}

func (s *stepSink) WriteEvents(gens []uint64, head uint64, frames [][]byte) error {
	defer s.exited.Add(1)
	direct := onShardWorker()
	if s.hold.Load() {
		s.entered <- struct{}{}
		<-s.release
	}
	if s.failGen != 0 && gens[len(gens)-1] >= s.failGen {
		s.failDirect.Store(direct)
		return errSinkBroke
	}
	s.captureSink.WriteEvents(gens, head, frames)
	s.mu.Lock()
	for range frames {
		s.direct = append(s.direct, direct)
	}
	s.mu.Unlock()
	return nil
}

// letGo releases the one call parked in the sink and stops holding.
func (s *stepSink) letGo() {
	s.hold.Store(false)
	s.release <- struct{}{}
}

// closableStepSink is a stepSink that abort can unblock, the way closing a
// socket unblocks a write.
type closableStepSink struct{ *stepSink }

func (c closableStepSink) Close() error {
	c.letGo()
	return nil
}

// paths returns, per delivered frame, its generation and whether the shard
// worker delivered it.
func (s *stepSink) paths() (gens []uint64, direct []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.frames {
		gens = append(gens, f.gen)
	}
	return gens, append([]bool(nil), s.direct...)
}

// wantPaths checks a sink saw generations 1..len(want) exactly once, in
// order, each on the expected goroutine.
func wantPaths(t *testing.T, who string, s *stepSink, want []bool) {
	t.Helper()
	gens, direct := s.paths()
	if len(gens) != len(want) {
		t.Fatalf("%s saw generations %v, want 1..%d", who, gens, len(want))
	}
	for i, g := range gens {
		if g != uint64(i+1) {
			t.Fatalf("%s saw generations %v, want 1..%d in order", who, gens, len(want))
		}
		if direct[i] != want[i] {
			t.Errorf("%s: gen %d delivered on the shard worker = %v, want %v", who, g, direct[i], want[i])
		}
	}
}

func repeatBool(v bool, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// directChannel is a channel and a publish function numbering events from
// 1, like their gens.
func directChannel(t *testing.T, opts ...ChannelOption) (*Broker, *Channel, func(n int)) {
	t.Helper()
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	t.Cleanup(func() { b.Close() })
	ch, err := b.Create("direct", opts...)
	if err != nil {
		t.Fatal(err)
	}
	_, bind := eventBinding(t, platform.X8664)
	seq := 0
	publish := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			seq++
			if err := ch.Publish(bind, &Event{Seq: int32(seq), Temp: float64(seq)}); err != nil {
				t.Fatalf("publish %d: %v", seq, err)
			}
		}
	}
	return b, ch, publish
}

// TestDirectDrainTransitions walks one Block sink through every hand-off:
// caught up (direct), gated while caught up (the worker waits inside the
// sink, nothing is queued), reattached with SubAfter while gated (the replay
// and the live events behind it are queued and drained by the writer), and
// caught up again (direct).  Every generation arrives exactly once, in
// order, on the goroutine the rules say.
func TestDirectDrainTransitions(t *testing.T) {
	_, ch, publish := directChannel(t, WithQueue(4), WithRetain(64))
	snk := newStepSink()
	sub, err := ch.SubscribeSink(snk, Block)
	if err != nil {
		t.Fatal(err)
	}
	publish(3) // 1..3: caught up
	ch.Sync()

	snk.hold.Store(true)
	publish(1) // 4: the worker is parked inside the sink
	<-snk.entered
	publish(2) // 5, 6: wait in the shard ring, not on the subscription
	if d := ch.Stats().Depth; d != 0 {
		t.Errorf("subscription depth %d with the worker inside the sink, want 0", d)
	}
	snk.letGo()
	ch.Sync()
	wantPaths(t, "first attach", snk, repeatBool(true, 6))
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}

	publish(3) // 7..9: nobody attached; retained
	snk.hold.Store(true)
	sub, err = ch.SubscribeSink(snk, Block, SubAfter(6))
	if err != nil {
		t.Fatal(err)
	}
	<-snk.entered // the writer is parked inside the sink with the replay
	publish(2)    // 10, 11: live, behind the replay
	ch.shard.sync()
	if d := ch.Stats().Depth; d < 2 {
		t.Errorf("subscription depth %d with the writer behind, want the live events queued", d)
	}
	snk.letGo()
	ch.Sync()
	publish(1) // 12: the queue drained, so caught up again
	ch.Sync()
	want := append(repeatBool(true, 6), repeatBool(false, 5)...)
	wantPaths(t, "after resume", snk, append(want, true))
	if st := ch.Stats(); st.BlockWaits != 0 || st.Depth != 0 {
		t.Errorf("stats %+v: a queue filled or stayed non-empty", st)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDirectDrainResumeUnderLoad races the one window the gated test cannot
// hold open: a SubAfter replay sitting in the queue with the writer not yet
// started on it, and a live event arriving at the shard worker.  The worker
// must queue behind the replay, not overtake it.  One sink detaches and
// resumes from its last generation, over and over, under a running
// publisher; it must see every generation exactly once, in order.
func TestDirectDrainResumeUnderLoad(t *testing.T) {
	_, ch, _ := directChannel(t, WithQueue(8), WithRetain(4096))
	_, bind := eventBinding(t, platform.X8664)
	const total = 3000
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 1; i <= total; i++ {
			if err := ch.Publish(bind, &Event{Seq: int32(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	snk := newStepSink()
	var last uint64
	for running := true; running; {
		select {
		case <-published:
			running = false // one more attach picks up the tail
		default:
		}
		sub, err := ch.SubscribeSink(snk, Block, SubAfter(last))
		if err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
		if !running {
			ch.Sync()
		}
		if err := sub.Close(); err != nil {
			t.Fatal(err)
		}
		if gens, _ := snk.paths(); len(gens) > 0 {
			last = gens[len(gens)-1]
		}
	}
	gens, _ := snk.paths()
	if len(gens) != total {
		t.Fatalf("saw %d generations, want %d", len(gens), total)
	}
	for i, g := range gens {
		if g != uint64(i+1) {
			t.Fatalf("generation %d at position %d: out of order or repeated", g, i)
		}
	}
}

// TestDirectDrainPinnedAnnouncement: a version-pinned subscriber's one
// announcement precedes its first data frame whichever goroutine delivers
// that frame — the shard worker (a live attach) or the writer (a SubAfter
// replay) — and is never repeated when the other goroutine takes over.
func TestDirectDrainPinnedAnnouncement(t *testing.T) {
	_, ch, chain, pctx := sensorBroker(t, WithRetain(16))
	live := newStepSink()
	if _, err := ch.SubscribeVersionSink(live, Block, 1); err != nil {
		t.Fatal(err)
	}
	publishSensor(t, ch, pctx, chain[2], 1, 1)
	ch.Sync()

	replayed := newStepSink()
	replayed.hold.Store(true)
	if _, err := ch.SubscribeVersionSink(replayed, Block, 1, SubAfter(0)); err != nil {
		t.Fatal(err)
	}
	<-replayed.entered // the writer holds gen 1; its announcement is already out
	replayed.letGo()
	ch.Sync()
	publishSensor(t, ch, pctx, chain[2], 2, 2)
	ch.Sync()

	wantPaths(t, "live pinned sink", live, []bool{true, true})
	wantPaths(t, "replayed pinned sink", replayed, []bool{false, true})
	for who, s := range map[string]*stepSink{"live": live, "replayed": replayed} {
		s.mu.Lock()
		if s.preAnn != 0 || len(s.formats) != 1 {
			t.Errorf("%s pinned sink: %d announcements, %d frames ahead of the first", who, len(s.formats), s.preAnn)
		}
		s.mu.Unlock()
		for _, f := range s.snapshot() {
			if frameID(t, f.data) != chain[0].ID() {
				t.Errorf("%s pinned sink got a frame in format %s, want v1", who, frameID(t, f.data))
			}
		}
	}
}

// TestDropSinksNeverHoldTheWorker: stalled in-process DropOldest and
// DropNewest sinks are always queued, so the shard worker they share with a
// Block sibling never enters them — the sibling gets every event directly
// and the fan-out completes with both Drop sinks still stalled.
func TestDropSinksNeverHoldTheWorker(t *testing.T) {
	_, ch, publish := directChannel(t, WithQueue(2))
	gate := make(chan struct{})
	for _, policy := range []Policy{DropOldest, DropNewest} {
		// Attached first, so the worker reaches them before the sibling.
		if _, err := ch.SubscribeSink(&stallSink{gate: gate}, policy); err != nil {
			t.Fatal(err)
		}
	}
	sibling := newStepSink()
	if _, err := ch.SubscribeSink(sibling, Block); err != nil {
		t.Fatal(err)
	}
	publish(16)
	ch.shard.sync() // returns only if no stalled sink is holding the worker
	wantPaths(t, "Block sibling", sibling, repeatBool(true, 16))
	if st := ch.Stats(); st.DroppedOldest == 0 || st.DroppedNewest == 0 || st.BlockWaits != 0 {
		t.Errorf("stats %+v: want both Drop sinks dropping and no Block wait", st)
	}
	close(gate)
}

// pathWriter is an io.Writer recording whether any write came from a shard
// worker.
type pathWriter struct{ writes, onWorker atomic.Int32 }

func (p *pathWriter) Write(b []byte) (int, error) {
	p.writes.Add(1)
	if onShardWorker() {
		p.onWorker.Add(1)
	}
	return len(b), nil
}

// TestWriterSubscribersStayQueued: sinks the broker wraps around an
// io.Writer are never run on the shard worker, Block policy or not.
func TestWriterSubscribersStayQueued(t *testing.T) {
	_, ch, chain, pctx := sensorBroker(t)
	var plain, pinned pathWriter
	if _, err := ch.Subscribe(&plain, Block); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.SubscribeVersion(&pinned, Block, 1); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		publishSensor(t, ch, pctx, chain[2], i, float64(i))
		ch.Sync()
	}
	for who, w := range map[string]*pathWriter{"Subscribe": &plain, "SubscribeVersion": &pinned} {
		if w.writes.Load() == 0 || w.onWorker.Load() != 0 {
			t.Errorf("%s: %d of %d writes came from the shard worker", who, w.onWorker.Load(), w.writes.Load())
		}
	}
}

// TestCloseWaitsForDirectDelivery: Subscription.Close, abort and
// Channel.Close issued while the shard worker is inside the sink return only
// after the sink call has — abort by closing a closable sink, the others by
// waiting — and every buffer is back in the pool afterwards.
func TestCloseWaitsForDirectDelivery(t *testing.T) {
	for _, tc := range []struct {
		name     string
		closable bool
		op       func(*Channel, *Subscription)
	}{
		{"Subscription.Close", false, func(_ *Channel, s *Subscription) { s.Close() }},
		{"abort", true, func(_ *Channel, s *Subscription) { s.abort() }},
		{"Channel.Close", false, func(ch *Channel, _ *Subscription) { ch.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gets0, puts0 := poolBalance()
			b, ch, publish := directChannel(t, WithRetain(4))
			snk := newStepSink()
			var sink Sink = snk
			if tc.closable {
				sink = closableStepSink{snk}
			}
			sub, err := ch.SubscribeSink(sink, Block)
			if err != nil {
				t.Fatal(err)
			}
			snk.hold.Store(true)
			publish(1)
			<-snk.entered // the shard worker is inside the sink

			sinkReturnedFirst := make(chan bool, 1)
			go func() {
				tc.op(ch, sub)
				sinkReturnedFirst <- snk.exited.Load() == 1
			}()
			if !tc.closable {
				// Nothing but the test can end the sink call.  Let the
				// operation get as far as marking the subscription closed,
				// see that it is still waiting, then let the sink go.
				for closed := false; !closed; runtime.Gosched() {
					sub.mu.Lock()
					closed = sub.closed
					sub.mu.Unlock()
				}
				select {
				case <-sinkReturnedFirst:
					sinkReturnedFirst <- false
				default:
				}
				snk.letGo()
			}
			if !<-sinkReturnedFirst {
				t.Error("returned with the shard worker still inside the sink")
			}
			if n := ch.Stats().Subscribers; n != 0 {
				t.Errorf("%d subscribers still attached", n)
			}
			b.Close()
			if gets, puts := poolBalance(); gets-gets0 != puts-puts0 {
				t.Errorf("pool: %v buffers taken, %v returned", gets-gets0, puts-puts0)
			}
		})
	}
}

// TestDirectDeliveryErrorDetaches: a sink error on the shard worker fails
// the subscription exactly as one on the writer does — terminal error kept,
// detached from the shard, subscriber count down, every reference released —
// and the worker carries on serving the sibling.
func TestDirectDeliveryErrorDetaches(t *testing.T) {
	gets0, puts0 := poolBalance()
	b, ch, publish := directChannel(t, WithRetain(8))
	bad := newStepSink()
	bad.failGen = 3
	badSub, err := ch.SubscribeSink(bad, Block)
	if err != nil {
		t.Fatal(err)
	}
	good := newStepSink()
	if _, err := ch.SubscribeSink(good, Block); err != nil {
		t.Fatal(err)
	}
	publish(5)
	ch.Sync()
	if err := badSub.Close(); !errors.Is(err, errSinkBroke) {
		t.Fatalf("Close() = %v, want the sink's error", err)
	}
	if !errors.Is(badSub.Err(), errSinkBroke) || !bad.failDirect.Load() {
		t.Errorf("Err() = %v, failed on the shard worker = %v", badSub.Err(), bad.failDirect.Load())
	}
	if gens, _ := bad.paths(); len(gens) > 2 {
		t.Errorf("failed sink was handed generations %v past its failure", gens)
	}
	if st := ch.Stats(); st.Subscribers != 1 || len(*ch.shard.sinks.Load()) != 1 {
		t.Errorf("%d subscribers, %d sinks on the shard after the failure, want 1 and 1",
			st.Subscribers, len(*ch.shard.sinks.Load()))
	}
	publish(1)
	ch.Sync()
	wantPaths(t, "sibling", good, repeatBool(true, 6))
	b.Close()
	if gets, puts := poolBalance(); gets-gets0 != puts-puts0 {
		t.Errorf("pool: %v buffers taken, %v returned", gets-gets0, puts-puts0)
	}
}

// TestDirectFanout64AllocFree is TestFanout64AllocFree for in-process
// sinks: publish, one hand-off, 64 sink calls on the fan-out worker, and
// nothing allocated, queued or waited for.
func TestDirectFanout64AllocFree(t *testing.T) {
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	ch, err := b.Create("fan")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := ch.SubscribeSink(discardSink{}, Block); err != nil {
			t.Fatal(err)
		}
	}
	_, bind := eventBinding(t, platform.X8664)
	ev := &Event{Seq: 7, Temp: 42.5}
	publish := func() {
		if err := ch.Publish(bind, ev); err != nil {
			t.Error(err)
		}
		ch.Sync()
	}
	for i := 0; i < 200; i++ {
		publish()
	}
	if n := testing.AllocsPerRun(100, publish); n != 0 {
		t.Errorf("direct fan-out to 64 sinks: %v allocs/op, want 0", n)
	}
	if st := ch.Stats(); st.Delivered != st.Published*64 || st.BlockWaits != 0 || st.Depth != 0 {
		t.Errorf("stats %+v: want every event delivered 64 times with nothing queued", st)
	}
}
