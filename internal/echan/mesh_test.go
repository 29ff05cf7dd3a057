package echan

import (
	"strings"
	"testing"
	"time"

	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/transport"
)

// startMeshServer boots one federated broker: server, mesh attached, fast
// gossip.  Channels default to a retention ring so links can resume.
func startMeshServer(t *testing.T, opts ...MeshOption) (*Server, *Mesh, string) {
	t.Helper()
	b := NewBroker(WithRegistry(obs.NewRegistry()), WithDefaultRetain(64))
	srv := NewServer(b)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]MeshOption{
		WithHelloInterval(20 * time.Millisecond),
		WithMeshAttachTimeout(5 * time.Second),
	}, opts...)
	m := NewMesh(b, addr, opts...)
	srv.AttachMesh(m)
	m.Start()
	t.Cleanup(func() {
		m.Close()
		srv.Close()
		b.Close()
	})
	return srv, m, addr
}

// contains reports whether list holds s.
func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// TestMeshGossipConverges seeds a 3-broker mesh as a chain (B knows A, C
// knows B) and waits for HELLO/PEERS gossip to make membership complete on
// every broker.
func TestMeshGossipConverges(t *testing.T) {
	_, mA, addrA := startMeshServer(t)
	_, mB, addrB := startMeshServer(t)
	_, mC, addrC := startMeshServer(t)

	mB.AddPeer(addrA)
	mC.AddPeer(addrB)

	waitFor(t, "gossip to converge", func() bool {
		return contains(mA.Peers(), addrB) && contains(mA.Peers(), addrC) &&
			contains(mB.Peers(), addrC) && contains(mC.Peers(), addrA)
	})

	// The control verbs see the same state.
	c, err := DialControl(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	peers, err := c.Peers()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(peers, addrB) || !contains(peers, addrC) {
		t.Errorf("PEERS on A = %v, want both %s and %s", peers, addrB, addrC)
	}
	line, err := c.MeshLine()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "self="+addrA) || !strings.Contains(line, "peers=2") {
		t.Errorf("MESH line = %q", line)
	}
}

// TestMeshHomeResolution: a channel created on A resolves to A from B, and
// an unknown channel resolves to the asking broker itself.
func TestMeshHomeResolution(t *testing.T) {
	_, _, addrA := startMeshServer(t)
	_, mB, addrB := startMeshServer(t)
	mB.AddPeer(addrA)

	ctl, err := DialControl(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Create("climate"); err != nil {
		t.Fatal(err)
	}
	if home := mB.ResolveHome("climate"); home != addrA {
		t.Errorf("ResolveHome(climate) from B = %q, want %q", home, addrA)
	}
	if home := mB.ResolveHome("nowhere"); home != addrB {
		t.Errorf("ResolveHome(nowhere) from B = %q, want %q (first use homes locally)", home, addrB)
	}
	// B's HOME verb now answers from its cache without a peer query.
	cb, err := DialControl(addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	if home, err := cb.Home("climate"); err != nil || home != addrA {
		t.Errorf("HOME climate on B = %q, %v; want %q", home, err, addrA)
	}
}

// TestMeshPubSubAcrossBrokers is the core federation path: a publisher on
// the channel's home broker, subscribers attached through two other
// brokers, every event delivered exactly once and in order to each.
func TestMeshPubSubAcrossBrokers(t *testing.T) {
	_, _, addrA := startMeshServer(t)
	_, mB, addrB := startMeshServer(t)
	_, mC, addrC := startMeshServer(t)
	mB.AddPeer(addrA)
	mC.AddPeer(addrA)

	ctl, err := DialControl(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Create("grid"); err != nil {
		t.Fatal(err)
	}

	subB, err := DialSubscriber(addrB, "grid", Block, 0, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer subB.Close()
	subC, err := DialSubscriber(addrC, "grid", Block, 0, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer subC.Close()

	sctx, bind := eventBinding(t, platform.Sparc32)
	pub, err := DialPublisher(addrA, "grid", sctx)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := pub.Send(bind, &Event{Seq: int32(i), Temp: float64(i)}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	for name, sub := range map[string]*SubscriberConn{"B": subB, "C": subC} {
		for want := int32(0); want < n; want++ {
			var ev Event
			if _, err := sub.Recv(&ev); err != nil {
				t.Fatalf("sub via %s: recv (want %d): %v", name, want, err)
			}
			if ev.Seq != want {
				t.Fatalf("sub via %s: seq = %d, want %d", name, ev.Seq, want)
			}
		}
	}

	// One link per remote broker, regardless of subscriber count; the link
	// stats surface on the MESH verb of the remote broker.
	cb, err := DialControl(addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	line, err := cb.MeshLine()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "link=grid@"+addrA) {
		t.Errorf("MESH on B = %q, want a grid link homed on A", line)
	}
	stats := mB.Links()
	if len(stats) != 1 || stats[0].Events != n || stats[0].Gaps != 0 {
		t.Errorf("link stats on B = %+v, want %d events, 0 gaps", stats, n)
	}
}

// TestMeshSharedLink attaches two subscribers through the same remote
// broker and checks they share one inter-broker link: events cross the
// wire once per broker, not once per subscriber.
func TestMeshSharedLink(t *testing.T) {
	_, _, addrA := startMeshServer(t)
	_, mB, addrB := startMeshServer(t)
	mB.AddPeer(addrA)

	ctl, err := DialControl(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Create("shared"); err != nil {
		t.Fatal(err)
	}

	var subsViaB []*SubscriberConn
	for i := 0; i < 2; i++ {
		sc, err := DialSubscriber(addrB, "shared", Block, 0, pbio.NewContext())
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		subsViaB = append(subsViaB, sc)
	}
	if links := mB.Links(); len(links) != 1 {
		t.Fatalf("links on B = %d, want 1 shared by both subscribers", len(links))
	}

	sctx, bind := eventBinding(t, platform.Sparc32)
	pub, err := DialPublisher(addrA, "shared", sctx)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Send(bind, &Event{Seq: 7, Temp: 1}); err != nil {
		t.Fatal(err)
	}
	for i, sc := range subsViaB {
		var ev Event
		if _, err := sc.Recv(&ev); err != nil || ev.Seq != 7 {
			t.Fatalf("sub %d via B: %v %+v", i, err, ev)
		}
	}
	if links := mB.Links(); links[0].Events != 1 {
		t.Errorf("link events = %d, want 1 (one wire crossing for two subscribers)", links[0].Events)
	}
}

// TestMeshPublisherForwarding publishes through a broker that does not own
// the channel: the PUB stream is forwarded to the home broker, and a
// subscriber on the home sees the events.
func TestMeshPublisherForwarding(t *testing.T) {
	_, _, addrA := startMeshServer(t)
	_, mB, addrB := startMeshServer(t)
	mB.AddPeer(addrA)

	ctl, err := DialControl(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Create("fwd"); err != nil {
		t.Fatal(err)
	}

	sub, err := DialSubscriber(addrA, "fwd", Block, 0, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	sctx, bind := eventBinding(t, platform.X8664)
	pub, err := DialPublisher(addrB, "fwd", sctx)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < 10; i++ {
		if err := pub.Send(bind, &Event{Seq: int32(i), Temp: float64(i)}); err != nil {
			t.Fatalf("publish %d via B: %v", i, err)
		}
	}
	for want := int32(0); want < 10; want++ {
		var ev Event
		if _, err := sub.Recv(&ev); err != nil || ev.Seq != want {
			t.Fatalf("sub on A: %v, seq %d want %d", err, ev.Seq, want)
		}
	}
}

// TestMeshPartitioning homes two channels on two different brokers and
// subscribes to both through a third: each channel keeps its own home, and
// the third broker runs one link per channel to the right place.
func TestMeshPartitioning(t *testing.T) {
	_, _, addrA := startMeshServer(t)
	_, _, addrB := startMeshServer(t)
	_, mC, addrC := startMeshServer(t)
	mC.AddPeer(addrA)
	mC.AddPeer(addrB)

	ca, err := DialControl(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	if err := ca.Create("alpha"); err != nil {
		t.Fatal(err)
	}
	cb, err := DialControl(addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	if err := cb.Create("beta"); err != nil {
		t.Fatal(err)
	}

	subAlpha, err := DialSubscriber(addrC, "alpha", Block, 0, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer subAlpha.Close()
	subBeta, err := DialSubscriber(addrC, "beta", Block, 0, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer subBeta.Close()

	links := mC.Links()
	if len(links) != 2 {
		t.Fatalf("links on C = %d, want 2", len(links))
	}
	if links[0].Channel != "alpha" || links[0].Home != addrA ||
		links[1].Channel != "beta" || links[1].Home != addrB {
		t.Errorf("links on C = %+v, want alpha@A and beta@B", links)
	}

	sctxA, bindA := eventBinding(t, platform.Sparc32)
	pubA, err := DialPublisher(addrA, "alpha", sctxA)
	if err != nil {
		t.Fatal(err)
	}
	defer pubA.Close()
	sctxB, bindB := eventBinding(t, platform.X8664)
	pubB, err := DialPublisher(addrB, "beta", sctxB)
	if err != nil {
		t.Fatal(err)
	}
	defer pubB.Close()
	if err := pubA.Send(bindA, &Event{Seq: 1, Temp: 1}); err != nil {
		t.Fatal(err)
	}
	if err := pubB.Send(bindB, &Event{Seq: 2, Temp: 2}); err != nil {
		t.Fatal(err)
	}
	var ev Event
	if _, err := subAlpha.Recv(&ev); err != nil || ev.Seq != 1 {
		t.Fatalf("alpha via C: %v %+v", err, ev)
	}
	if _, err := subBeta.Recv(&ev); err != nil || ev.Seq != 2 {
		t.Fatalf("beta via C: %v %+v", err, ev)
	}
}

// TestMeshRemoteJoinerReplay subscribes through a remote broker after the
// stream is underway and reads raw frames: the format announcement must
// arrive before the first data frame, whatever the backpressure policy.
func TestMeshRemoteJoinerReplay(t *testing.T) {
	for _, policy := range []Policy{Block, DropOldest, DropNewest} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			_, mB, addrB := startMeshServer(t)
			_, _, addrA := startMeshServer(t)
			mB.AddPeer(addrA)

			ctl, err := DialControl(addrA)
			if err != nil {
				t.Fatal(err)
			}
			defer ctl.Close()
			if err := ctl.Create("joiner"); err != nil {
				t.Fatal(err)
			}

			sctx, bind := eventBinding(t, platform.Sparc32)
			pub, err := DialPublisher(addrA, "joiner", sctx)
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()
			for i := 0; i < 20; i++ {
				if err := pub.Send(bind, &Event{Seq: int32(i), Temp: float64(i)}); err != nil {
					t.Fatal(err)
				}
			}

			// Join mid-stream through B with a raw connection, so the frame
			// order on the wire is observable.
			raw, err := DialControl(addrB)
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			if _, err := raw.Do("SUB joiner " + policy.String()); err != nil {
				t.Fatal(err)
			}
			go func() {
				// Keep the stream moving so a drop policy has something to
				// deliver after the join.
				for i := 20; i < 60; i++ {
					if pub.Send(bind, &Event{Seq: int32(i), Temp: float64(i)}) != nil {
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()
			sawFormat := false
			for i := 0; i < 10; i++ {
				kind, _, err := readRawFrame(raw.rd)
				if err != nil {
					t.Fatalf("raw frame %d: %v", i, err)
				}
				switch kind {
				case transport.FrameFormat:
					sawFormat = true
				case transport.FrameData:
					if !sawFormat {
						t.Fatalf("data frame before any format announcement (frame %d)", i)
					}
					return
				default:
					t.Fatalf("unexpected frame kind %d", kind)
				}
			}
			t.Fatal("no data frame within 10 frames of joining")
		})
	}
}

// TestMeshNotFederated: the mesh verbs on a plain broker answer ERR
// rather than hanging or crashing.
func TestMeshNotFederated(t *testing.T) {
	_, addr := startServer(t)
	c, err := DialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, line := range []string{"HELLO 127.0.0.1:1", "HOME x", "PEERS", "MESH"} {
		if _, err := c.Do(line); err == nil || !strings.Contains(err.Error(), "not federated") {
			t.Errorf("%s on plain broker: err = %v, want not federated", line, err)
		}
	}
}
