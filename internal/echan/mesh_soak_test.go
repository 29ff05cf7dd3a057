package echan

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/transport"
)

// chaosNetConn is a net.Conn whose byte stream runs through a
// transport.Chaos fault injector (deadlines and addresses pass through to
// the real connection).
type chaosNetConn struct {
	net.Conn
	chaos *transport.Chaos
}

func (c chaosNetConn) Read(p []byte) (int, error)  { return c.chaos.Read(p) }
func (c chaosNetConn) Write(p []byte) (int, error) { return c.chaos.Write(p) }
func (c chaosNetConn) Close() error                { return c.chaos.Close() }

// soakMeshServer is startMeshServer with the retention ring sized to the
// whole soak stream, so a torn link can always resume without a gap.
func soakMeshServer(t *testing.T, retain int, opts ...MeshOption) (*Mesh, string, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	b := NewBroker(WithRegistry(reg), WithDefaultRetain(retain))
	srv := NewServer(b)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]MeshOption{
		WithHelloInterval(50 * time.Millisecond),
		WithMeshAttachTimeout(10 * time.Second),
	}, opts...)
	m := NewMesh(b, addr, opts...)
	srv.AttachMesh(m)
	m.Start()
	t.Cleanup(func() {
		m.Close()
		srv.Close()
		b.Close()
	})
	return m, addr, reg
}

// recvExact drains a subscriber expecting exactly the contiguous sequence
// 0..n-1: a gap is a lost event, a regression a duplicate.
func recvExact(t *testing.T, sc *SubscriberConn, via string, n int, done chan<- int) {
	count := 0
	want := int32(0)
	for count < n {
		var ev Event
		if _, err := sc.Recv(&ev); err != nil {
			t.Errorf("sub via %s: recv after %d events: %v", via, count, err)
			break
		}
		if ev.Seq != want {
			t.Errorf("sub via %s: seq = %d, want %d (gap = loss, regression = duplicate)", via, ev.Seq, want)
			break
		}
		want++
		count++
	}
	done <- count
}

// TestMeshSoak3Brokers is the federation soak: three brokers over real
// TCP, a publisher on A, subscribers attached through B and C and directly
// on A.  Every inter-broker connection B makes is fault-injected (short
// reads, delays) and read-resets mid-stream, so B's link to A is torn and
// re-torn while events flow; the link must reconnect, resume from A's
// retention ring, and deduplicate the replay overlap.  Every subscriber
// must see the full sequence exactly once — under -race this is the
// concurrency soak for the whole mesh path.
func TestMeshSoak3Brokers(t *testing.T) {
	n := soakN()

	_, addrA, regA := soakMeshServer(t, n)

	// B's dialer injects chaos into every inter-broker byte stream and arms
	// a read reset that trips only on long-lived, high-volume connections —
	// the link sessions — leaving short gossip exchanges unharmed.  Each
	// link session dies after ~8KB, so the link tears several times across
	// the soak.
	var dials atomic.Int64
	chaosDial := func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		seed := 9000 + dials.Add(1)
		ch := transport.NewChaos(conn, seed,
			transport.WithShortReads(0.2),
			transport.WithDelays(0.01, 50*time.Microsecond),
			transport.WithReadReset(8<<10))
		return chaosNetConn{Conn: conn, chaos: ch}, nil
	}
	mB, addrB, regB := soakMeshServer(t, n, WithMeshDialer(chaosDial))
	mC, addrC, _ := soakMeshServer(t, n)
	mB.AddPeer(addrA)
	mC.AddPeer(addrA)

	ctl, err := DialControl(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Create("soak"); err != nil {
		t.Fatal(err)
	}

	subs := map[string]*SubscriberConn{}
	for via, addr := range map[string]string{"A": addrA, "B": addrB, "C": addrC} {
		sc, err := DialSubscriber(addr, "soak", Block, 256, pbio.NewContext())
		if err != nil {
			t.Fatalf("subscribing via %s: %v", via, err)
		}
		defer sc.Close()
		subs[via] = sc
	}

	done := make(chan int, len(subs))
	for via, sc := range subs {
		go recvExact(t, sc, via, n, done)
	}

	sctx, bind := eventBinding(t, platform.Sparc32)
	pub, err := DialPublisher(addrA, "soak", sctx)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < n; i++ {
		if err := pub.Send(bind, &Event{Seq: int32(i), Temp: float64(i)}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	deadline := time.After(60 * time.Second)
	for range subs {
		select {
		case got := <-done:
			if got != n {
				t.Errorf("subscriber finished with %d/%d events", got, n)
			}
		case <-deadline:
			t.Fatal("timed out waiting for subscribers to drain")
		}
	}

	// The fault model must actually have bitten: B's link tore and
	// reconnected at least once, resumed without a gap, and C (unfaulted)
	// never reconnected at all.
	linksB := mB.Links()
	if len(linksB) != 1 {
		t.Fatalf("links on B = %d, want 1", len(linksB))
	}
	if linksB[0].Reconnects < 1 {
		t.Errorf("link on B reconnects = %d, want >= 1 (chaos reset never fired)", linksB[0].Reconnects)
	}
	if linksB[0].Gaps != 0 {
		t.Errorf("link on B gaps = %d, want 0 (retention covers the whole stream)", linksB[0].Gaps)
	}
	if linksC := mC.Links(); len(linksC) != 1 || linksC[0].Reconnects != 0 {
		t.Errorf("links on C = %+v, want one link with 0 reconnects", linksC)
	}
	if v, _ := regB.Value("echan_mesh_link_soak_reconnects_total"); v < 1 {
		t.Errorf("echan_mesh_link_soak_reconnects_total = %v, want >= 1", v)
	}

	// Pooled-buffer invariant on the home broker: replay and link teardown
	// must not double-release (puts can never exceed gets).
	gets, _ := regA.Value("pbio_pool_get_total")
	puts, _ := regA.Value("pbio_pool_put_total")
	if puts > gets {
		t.Errorf("pool puts %v exceed gets %v on home broker (double release)", puts, gets)
	}
}
