package echan

import (
	"bytes"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/transport"
)

// lockedBuf is a subscriber sink capturing the exact byte stream the
// subscription writer emits (writes come from the writer goroutine, reads
// from the test goroutine after Sync).
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedBuf) snapshot() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.buf.Bytes()...)
}

// TestWriteBatchSingleEquivalence pins the batched drain's wire contract:
// a channel draining whole ready runs per write emits a byte stream
// identical to one-Write-per-event delivery — same announcements, same
// frames, same order.  Only the syscall grouping may differ.  The
// per-event reference publishes one event and waits for its delivery
// (Sync) before the next, so every drain it sees is a run of one.
func TestWriteBatchSingleEquivalence(t *testing.T) {
	const events = 300
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()

	batched, err := b.Create("wb_batched", WithQueue(64))
	if err != nil {
		t.Fatal(err)
	}
	single, err := b.Create("wb_single", WithQueue(64))
	if err != nil {
		t.Fatal(err)
	}
	var bSink, sSink lockedBuf
	if _, err := batched.Subscribe(&bSink, Block); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Subscribe(&sSink, Block); err != nil {
		t.Fatal(err)
	}
	_, bind := eventBinding(t, platform.X8664)

	for i := 0; i < events; i++ {
		ev := &Event{Seq: int32(i), Temp: float64(i)}
		if err := batched.Publish(bind, ev); err != nil {
			t.Fatal(err)
		}
		if err := single.Publish(bind, ev); err != nil {
			t.Fatal(err)
		}
		single.Sync()
	}
	batched.Sync()

	got, want := bSink.snapshot(), sSink.snapshot()
	if !bytes.Equal(got, want) {
		t.Fatalf("batched drain stream differs from per-event baseline: %d vs %d bytes",
			len(got), len(want))
	}
	if len(got) == 0 {
		t.Fatal("no bytes delivered")
	}
	// The reference really was unbatched: at least one write per event.
	if w, _ := b.reg.Value("echan_wb_single_sink_writes_total"); w < events {
		t.Errorf("per-event reference: %v sink writes for %d events", w, events)
	}
}

// TestBatchedDrainUnixSockets runs the batched drain against real sockets:
// subscribers on unix-domain connections (the same-host lane echod's -unix
// serves) under Block, fed a burst.  Every event reaches every subscriber,
// and the drain never costs more than one sink write per delivered event.
func TestBatchedDrainUnixSockets(t *testing.T) {
	const subscribers, events = 8, 2000
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "b.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Closing the broker closes the server ends; the readers then see EOF.
	var drains sync.WaitGroup
	defer drains.Wait()
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	ch, err := b.Create("unixburst", WithQueue(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < subscribers; i++ {
		client, err := net.Dial("unix", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		server, err := ln.Accept()
		if err != nil {
			client.Close()
			t.Fatal(err)
		}
		drains.Add(1)
		go func() {
			defer drains.Done()
			io.Copy(io.Discard, client)
			client.Close()
		}()
		if _, err := ch.Subscribe(server, Block); err != nil {
			server.Close() // not the broker's yet: release the reader here
			t.Fatal(err)
		}
	}
	_, bind := eventBinding(t, platform.X8664)
	for i := 0; i < events; i++ {
		if err := ch.Publish(bind, &Event{Seq: int32(i), Temp: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ch.Sync()

	delivered, _ := b.reg.Value("echan_unixburst_delivered_total")
	writes, _ := b.reg.Value("echan_unixburst_sink_writes_total")
	if delivered != subscribers*events {
		t.Fatalf("delivered %v, want %d", delivered, subscribers*events)
	}
	if writes <= 0 || writes > delivered {
		t.Errorf("%v sink writes for %v deliveries, want at most one per delivery", writes, delivered)
	}
	t.Logf("%.3f sink writes per delivered event", writes/delivered)
}

// TestBatchedDrainChaosSoak subjects the vectored drain to torn links: a
// burst publisher races subscribers whose writes are chopped into partial
// writes by transport.Chaos, so batched runs land on the wire in arbitrary
// fragments.  Every subscriber must still decode the full stream in order,
// and the pooled-frame refcounting must balance — a double release on the
// batched path (one release per frame and one per batch, say) would push
// puts past gets.
func TestBatchedDrainChaosSoak(t *testing.T) {
	const subscribers = 4
	n := soakN()
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	ch, err := b.Create("vsoak", WithQueue(32))
	if err != nil {
		t.Fatal(err)
	}
	_, bind := eventBinding(t, platform.Sparc32)

	var subs []*Subscription
	var chaoses []*transport.Chaos
	done := make(chan recvResult, subscribers)
	for i := 0; i < subscribers; i++ {
		sink, recv := net.Pipe()
		chaos := transport.NewChaos(sink, int64(4000+i),
			transport.WithPartialWrites(0.5),
			transport.WithDelays(0.01, 30*time.Microsecond))
		sub, err := ch.Subscribe(chaos, Block)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
		chaoses = append(chaoses, chaos)
		go recvAll(t, recv, done)
	}

	for i := 0; i < n; i++ {
		if err := ch.Publish(bind, &Event{Seq: int32(i), Temp: float64(i)}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	ch.Sync()
	for _, sub := range subs {
		if err := sub.Close(); err != nil {
			t.Errorf("subscriber failed: %v", err)
		}
	}
	for _, chaos := range chaoses {
		chaos.Close()
	}
	var torn int64
	for _, chaos := range chaoses {
		torn += chaos.Stats().PartialWrites
	}
	if torn == 0 {
		t.Error("chaos injected no partial writes; the soak exercised nothing")
	}
	for i := 0; i < subscribers; i++ {
		res := <-done
		if res.count != n || res.last != int32(n-1) {
			t.Errorf("Block subscriber got %d/%d events, last seq %d", res.count, n, res.last)
		}
	}

	// Pool invariant: sample puts first so a concurrent get cannot fake a
	// violation.
	puts, _ := obs.Default().Value("pbio_pool_put_total")
	gets, _ := obs.Default().Value("pbio_pool_get_total")
	if puts > gets {
		t.Fatalf("pool invariant violated: %v puts > %v gets (double release)", puts, gets)
	}
}

// TestShardedFanoutBatchedBurstAllocFree extends the zero-allocation gate
// to the batched drain: a 64-event burst per iteration forces whole-run
// WriteEvents deliveries (not a batch of one), and the
// publish+drain cycle must still allocate nothing in steady state.
func TestShardedFanoutBatchedBurstAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector; the gate would measure that")
	}
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	ch, err := b.Create("fanburst", WithQueue(128))
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

	burst := func() {
		for i := 0; i < 64; i++ {
			if err := ch.Publish(bind, ev); err != nil {
				t.Error(err)
			}
		}
		ch.Sync()
	}
	for i := 0; i < 5; i++ {
		burst()
	}
	if n := testing.AllocsPerRun(50, burst); n != 0 {
		t.Errorf("batched burst fan-out to 64 subscribers: %v allocs per 64-event burst, want 0", n)
	}
	st := ch.Stats()
	if st.Delivered != st.Published*64 {
		t.Errorf("delivered %d, want %d", st.Delivered, st.Published*64)
	}
	// The drain actually batched: far fewer sink writes than deliveries.
	writes, _ := b.reg.Value("echan_fanburst_sink_writes_total")
	if writes <= 0 || writes >= float64(st.Delivered) {
		t.Errorf("sink writes = %v for %d deliveries; burst drain did not batch", writes, st.Delivered)
	}
}

// TestUnixLaneEndToEnd runs the daemon protocol over the same-host fast
// lane: control, publisher, and subscriber connections all reach the
// broker through a unix-domain socket, selected transparently by address
// form alone, with the subscriber stream riding the vectored write path.
func TestUnixLaneEndToEnd(t *testing.T) {
	const events = 200
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	srv := NewServer(b)
	defer srv.Close()

	path := filepath.Join(t.TempDir(), "echod.sock")
	bound, err := srv.ListenUnix(path)
	if err != nil {
		t.Fatal(err)
	}
	if bound != path {
		t.Fatalf("bound address %q, want %q", bound, path)
	}

	cl, err := DialControl(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("fast"); err != nil {
		t.Fatal(err)
	}

	sub, err := DialSubscriber(path, "fast", Block, 0, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	sctx, bind := eventBinding(t, platform.X8664)
	pub, err := DialPublisher(path, "fast", sctx)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < events; i++ {
		if err := pub.Send(bind, &Event{Seq: int32(i), Temp: float64(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < events; i++ {
		var ev Event
		if _, err := sub.Recv(&ev); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if ev.Seq != int32(i) {
			t.Fatalf("recv %d: seq %d", i, ev.Seq)
		}
	}

	st, err := cl.Stats("fast")
	if err != nil {
		t.Fatal(err)
	}
	if st.Published != events || st.Subscribers != 1 {
		t.Errorf("stats over unix lane: %+v", st)
	}
}

// TestListenUnixStaleSocket: a socket file left behind by a dead broker
// must not block a restart, while a non-socket file at the path must.
func TestListenUnixStaleSocket(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "stale.sock")
	ln, err := net.Listen("unix", stale)
	if err != nil {
		t.Fatal(err)
	}
	// Leave the socket file on disk, as a crashed broker would.
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close()

	srv := NewServer(NewBroker(WithRegistry(obs.NewRegistry())))
	defer srv.Close()
	if _, err := srv.ListenUnix(stale); err != nil {
		t.Fatalf("stale socket not reclaimed: %v", err)
	}

	srv2 := NewServer(NewBroker(WithRegistry(obs.NewRegistry())))
	defer srv2.Close()
	if _, err := srv2.ListenUnix(stale); err == nil {
		t.Error("second ListenUnix on a live socket succeeded; live sockets must not be stolen")
	}
}
