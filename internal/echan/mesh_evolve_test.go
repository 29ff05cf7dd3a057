package echan

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/registry"
	"github.com/open-metadata/xmit/internal/transport"
)

// evolveMeshServer is soakMeshServer with a schema registry attached
// (backward policy), so lineages form, gossip, and gate.
func evolveMeshServer(t *testing.T, retain int, mopts ...MeshOption) (*Mesh, string, *obs.Registry, *registry.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	sr := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	b := NewBroker(WithRegistry(reg), WithDefaultRetain(retain), WithSchemaRegistry(sr))
	srv := NewServer(b)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mopts = append([]MeshOption{
		WithHelloInterval(50 * time.Millisecond),
		WithMeshAttachTimeout(10 * time.Second),
	}, mopts...)
	m := NewMesh(b, addr, mopts...)
	srv.AttachMesh(m)
	m.Start()
	t.Cleanup(func() {
		m.Close()
		srv.Close()
		b.Close()
	})
	return m, addr, reg, sr
}

// recvEvolvedWire drains a wire subscriber in record mode until it has
// decoded limit events, checking seq is strictly contiguous from first.
// wantID, when nonzero, asserts every record decodes under that one format
// — the pinned-view contract — and that every projected value round-trips
// exactly (seq is the publisher's loop counter, so any re-encode slip
// shows).
func recvEvolvedWire(t *testing.T, sc *SubscriberConn, via string, limit int, wantID meta.FormatID, done chan<- evolveRecv) {
	res := evolveRecv{formats: map[meta.FormatID]bool{}}
	for res.count < limit {
		rec, err := sc.RecvRecord()
		if err != nil {
			t.Errorf("sub via %s: recv after %d events: %v", via, res.count, err)
			break
		}
		id := rec.Format().ID()
		res.formats[id] = true
		if wantID != 0 && id != wantID {
			t.Errorf("sub via %s: decoded under %s, want pinned %s", via, id, wantID)
			break
		}
		sv, ok := rec.Get("seq")
		if !ok {
			t.Errorf("sub via %s: record without seq", via)
			break
		}
		seq := sv.(uint64)
		if res.count == 0 {
			res.first = seq
		} else if seq != res.last+1 {
			t.Errorf("sub via %s: seq %d after %d (gap = loss, regression = duplicate)", via, seq, res.last)
			break
		}
		res.last = seq
		res.count++
	}
	done <- res
}

// TestMeshEvolutionSoak federates the schema registry under fire: the
// format of a channel homed on broker A upgrades three times mid-stream
// while every inter-broker byte B moves runs through a fault injector that
// tears the link repeatedly.  A v1-pinned subscriber attached through B
// must decode the entire stream bit-exactly under v1 (projection running
// on B, not at the home), and a second pinned subscriber proves resume
// portability: it receives the head of the stream through A, dies, and
// reattaches through B with the generation it last saw — the two lives
// must cover the stream exactly once, no gap, no duplicate.  Lineage state
// must converge onto B by gossip alone.  Run under -race this is the
// concurrency soak for the federated registry.
func TestMeshEvolutionSoak(t *testing.T) {
	n := soakN()
	const steps = 4

	_, addrA, regA, srA := evolveMeshServer(t, n+8)

	var dials atomic.Int64
	chaosDial := func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		seed := 11000 + dials.Add(1)
		ch := transport.NewChaos(conn, seed,
			transport.WithShortReads(0.2),
			transport.WithDelays(0.01, 50*time.Microsecond),
			transport.WithReadReset(8<<10))
		return chaosNetConn{Conn: conn, chaos: ch}, nil
	}
	mB, addrB, regB, srB := evolveMeshServer(t, n+8, WithMeshDialer(chaosDial))
	mB.AddPeer(addrA)

	ctl, err := DialControl(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Create("soakev"); err != nil {
		t.Fatal(err)
	}

	chain := evolveChain(t, steps)
	// Seed v1 at the home so pinned views resolve before the first publish.
	if _, err := srA.Register("soakev", chain[0], "seed"); err != nil {
		t.Fatal(err)
	}

	// Head subscriber through B: must see every event and all four formats.
	headSub, err := DialSubscriber(addrB, "soakev", Block, 256, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer headSub.Close()
	headDone := make(chan evolveRecv, 1)
	go recvEvolvedWire(t, headSub, "B(head)", n, 0, headDone)

	// v1-pinned subscriber through B: the view resolves on B from lineage
	// state pulled off the home — B's proxy never saw a SUB-time
	// announcement for v1, the stream starts on it.
	pinSub, err := DialSubscriberVersion(addrB, "soakev", Block, 256, 1, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer pinSub.Close()
	pinDone := make(chan evolveRecv, 1)
	go recvEvolvedWire(t, pinSub, "B(pin)", n, chain[0].ID(), pinDone)

	// Doomed pinned subscriber through A: reads the head of the stream then
	// disconnects; it reattaches through B below.
	cut := n / 3
	doomSub, err := DialSubscriberVersion(addrA, "soakev", Block, 256, 1, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	doomDone := make(chan evolveRecv, 1)
	go recvEvolvedWire(t, doomSub, "A(doomed)", cut, chain[0].ID(), doomDone)

	// The publisher upgrades the format every n/steps events, mid-stream.
	pub, err := DialPublisherConn(addrA, "soakev", pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 1; i <= n; i++ {
		f := chain[(i-1)*steps/n]
		rec := pbio.NewRecord(f)
		if err := rec.Set("seq", uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := pub.SendRecord(rec); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		if i == cut {
			// The doomed subscriber has its span in flight; let it finish
			// and tear down before the stream moves on.
			d := <-doomDone
			doomSub.Close()
			if d.count != cut || d.first != 1 || d.last != uint64(cut) {
				t.Fatalf("doomed got %d events (%d..%d), want %d (1..%d)", d.count, d.first, d.last, cut, cut)
			}
			// Reattach through the other broker, pinned to the same view,
			// resuming after the last generation seen via A.  Proxy channels
			// re-publish under home generation numbers, so the position
			// carries across brokers.  A resume past the proxy's current
			// head is refused (conservative: counted loss beats silent
			// duplication), so wait for B's chaos-torn link to catch up to
			// the cut first.
			cb, err := DialControl(addrB)
			if err != nil {
				t.Fatal(err)
			}
			defer cb.Close()
			waitFor(t, "B's proxy to reach the cut", func() bool {
				st, err := cb.Stats("soakev")
				return err == nil && st.Head >= uint64(cut)
			})
			resSub, err := DialSubscriberVersionAfter(addrB, "soakev", Block, 256, 1, d.last, pbio.NewContext())
			if err != nil {
				t.Fatalf("pinned reattach through B after gen %d: %v", d.last, err)
			}
			defer resSub.Close()
			go recvEvolvedWire(t, resSub, "B(resumed)", n-cut, chain[0].ID(), doomDone)
		}
	}
	// Every upgrade is additive; any asynchronous compat rejection is a bug.
	if err := pub.Status(200 * time.Millisecond); err != nil {
		t.Fatalf("publisher rejected: %v", err)
	}

	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	collect := func(what string, ch <-chan evolveRecv) evolveRecv {
		select {
		case r := <-ch:
			return r
		case <-deadline.C:
			t.Fatalf("timed out waiting for %s", what)
			return evolveRecv{}
		}
	}
	head := collect("head subscriber", headDone)
	pin := collect("pinned subscriber", pinDone)
	resumed := collect("resumed subscriber", doomDone)

	if head.count != n || head.first != 1 || head.last != uint64(n) {
		t.Errorf("head got %d events (%d..%d), want %d (1..%d)", head.count, head.first, head.last, n, n)
	}
	if len(head.formats) != steps {
		t.Errorf("head saw %d formats, want %d", len(head.formats), steps)
	}
	if pin.count != n || pin.first != 1 || pin.last != uint64(n) {
		t.Errorf("pinned got %d events (%d..%d), want %d (1..%d)", pin.count, pin.first, pin.last, n, n)
	}
	if len(pin.formats) != 1 {
		t.Errorf("pinned saw %d formats, want 1", len(pin.formats))
	}
	// The two lives of the reattaching subscriber cover the stream exactly
	// once: 1..cut through A, cut+1..n through B.
	if resumed.first != uint64(cut)+1 || resumed.last != uint64(n) || resumed.count != n-cut {
		t.Errorf("resumed covered %d..%d (%d events), want %d..%d (%d)",
			resumed.first, resumed.last, resumed.count, cut+1, n, n-cut)
	}

	// Projection ran on B — the remote broker, not the home — for the
	// pinned subscribers attached there.
	if v, _ := regB.Value("echan_soakev_view_projected_total"); v <= 0 {
		t.Errorf("view_projected on B = %v, want > 0 (projection must run at the subscriber's broker)", v)
	}

	// The fault model must actually have bitten, without losing a span.
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

	// Gossip must converge B's registry onto the home's full lineage.
	waitFor(t, "lineage to replicate to B", func() bool {
		l, err := srB.Lineage("soakev")
		return err == nil && len(l.Versions()) == steps
	})
	lA, err := srA.Lineage("soakev")
	if err != nil {
		t.Fatal(err)
	}
	lB, err := srB.Lineage("soakev")
	if err != nil {
		t.Fatal(err)
	}
	va, vb := lA.Versions(), lB.Versions()
	for i := range va {
		if vb[i].ID != va[i].ID {
			t.Errorf("B's v%d = %s, want %s (histories must be identical)", i+1, vb[i].ID, va[i].ID)
		}
	}

	// Pooled-buffer invariant on both brokers: projection, replay, and link
	// teardown must never double-release.
	for _, br := range []struct {
		name string
		reg  *obs.Registry
	}{{"A", regA}, {"B", regB}} {
		gets, _ := br.reg.Value("pbio_pool_get_total")
		puts, _ := br.reg.Value("pbio_pool_put_total")
		if puts > gets {
			t.Errorf("pool puts %v exceed gets %v on broker %s (double release)", puts, gets, br.name)
		}
	}
}

// TestMeshRemotePinnedProjectsOnce: v1-pinned subscribers attached through
// a remote broker share one projection per event, and it runs on that
// remote broker.  The home ships the head-format event once over the link
// and projects nothing; the remote projects each event exactly once for
// all of its pinned subscribers.  No fault injection: the counts are exact.
func TestMeshRemotePinnedProjectsOnce(t *testing.T) {
	const n, pinned = 200, 3
	_, addrA, regA, srA := evolveMeshServer(t, n+8)
	mB, addrB, regB, _ := evolveMeshServer(t, n+8)
	mB.AddPeer(addrA)

	ctl, err := DialControl(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Create("pinonce"); err != nil {
		t.Fatal(err)
	}
	chain := evolveChain(t, 2)
	if _, err := srA.Register("pinonce", chain[0], "seed"); err != nil {
		t.Fatal(err)
	}

	done := make(chan evolveRecv, pinned)
	for i := 0; i < pinned; i++ {
		sc, err := DialSubscriberVersion(addrB, "pinonce", Block, 256, 1, pbio.NewContext())
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		go recvEvolvedWire(t, sc, "B(pin)", n, chain[0].ID(), done)
	}

	pub, err := DialPublisherConn(addrA, "pinonce", pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 1; i <= n; i++ {
		rec := pbio.NewRecord(chain[1])
		if err := rec.Set("seq", uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := pub.SendRecord(rec); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < pinned; i++ {
		select {
		case r := <-done:
			if r.count != n || r.first != 1 || r.last != uint64(n) {
				t.Errorf("pinned got %d events (%d..%d), want %d (1..%d)", r.count, r.first, r.last, n, n)
			}
		case <-deadline:
			t.Fatal("timed out waiting for the pinned subscribers")
		}
	}

	if v, _ := regB.Value("echan_pinonce_view_projected_total"); v != n {
		t.Errorf("projections on the remote = %v, want %d (one per event, shared by %d pinned subscribers)", v, n, pinned)
	}
	if v, ok := regA.Value("echan_pinonce_view_projected_total"); !ok || v != 0 {
		t.Errorf("projections on the home = %v (registered %v), want 0 (the view is the subscriber's broker's job)", v, ok)
	}
}
