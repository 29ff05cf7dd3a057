package echan

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/transport"
)

// soakN is the number of events the chaos soak pushes through a channel
// (per policy); -short keeps CI under its time budget.
func soakN() int {
	if testing.Short() {
		return 800
	}
	return 3000
}

// recvResult summarises one subscriber's decoded stream.
type recvResult struct {
	count int
	first int32
	last  int32
}

// recvAll drives a transport.Conn over the read side of a subscriber pipe
// until the stream closes, checking that sequence numbers only move
// forward (drop policies may skip, never reorder or repeat).
func recvAll(t *testing.T, r io.ReadWriteCloser, done chan<- recvResult) {
	conn := transport.NewConn(r, pbio.NewContext())
	res := recvResult{first: -1, last: -1}
	for {
		var ev Event
		if _, err := conn.Recv(&ev); err != nil {
			break
		}
		if res.first < 0 {
			res.first = ev.Seq
		}
		if ev.Seq <= res.last {
			t.Errorf("sequence moved backwards: %d after %d", ev.Seq, res.last)
		}
		res.last = ev.Seq
		res.count++
	}
	done <- res
}

// TestChaosSoakBroker drives the broker through thousands of events per
// backpressure policy with fault-injected subscriber links: one link torn
// (partial writes, delays), one reset mid-frame, and a mid-stream joiner
// attaching after the reset.  Run under -race this is the concurrency soak
// for the fan-out path; the final check asserts the pooled-buffer
// invariant (a double-released buffer would push puts past gets).
func TestChaosSoakBroker(t *testing.T) {
	for _, policy := range []Policy{Block, DropOldest, DropNewest} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			n := soakN()
			b := NewBroker(WithRegistry(obs.NewRegistry()))
			defer b.Close()
			ch, err := b.Create("soak")
			if err != nil {
				t.Fatal(err)
			}
			_, bind := eventBinding(t, platform.Sparc32)

			// Subscriber A rides a torn link for the whole soak.
			aSink, aRecv := net.Pipe()
			aChaos := transport.NewChaos(aSink, 1001,
				transport.WithPartialWrites(0.4),
				transport.WithDelays(0.01, 50*time.Microsecond))
			subA, err := ch.Subscribe(aChaos, policy)
			if err != nil {
				t.Fatal(err)
			}
			aDone := make(chan recvResult, 1)
			go recvAll(t, aRecv, aDone)

			// Subscriber B's link resets mid-frame.  The threshold must be
			// below the announcement plus one full queue of frames, so it
			// trips even when a drop policy sheds most of the stream.
			bSink, bRecv := net.Pipe()
			bChaos := transport.NewChaos(bSink, 1002,
				transport.WithReset(1024),
				transport.WithPartialWrites(0.3))
			subB, err := ch.Subscribe(bChaos, policy)
			if err != nil {
				t.Fatal(err)
			}
			go io.Copy(io.Discard, bRecv)

			for i := 0; i < n; i++ {
				if err := ch.Publish(bind, &Event{Seq: int32(i), Temp: float64(i)}); err != nil {
					t.Fatalf("publish %d: %v", i, err)
				}
			}

			waitFor(t, "reset subscriber to fail", func() bool { return subB.Err() != nil })
			if !errors.Is(subB.Err(), transport.ErrChaosReset) {
				t.Fatalf("doomed subscriber error = %v, want ErrChaosReset", subB.Err())
			}
			if got := bChaos.Stats().Resets; got != 1 {
				t.Errorf("resets = %d, want 1", got)
			}

			// A joiner attaching after the reset must still decode — its
			// first data frame is preceded by the channel's announcements.
			jSink, jRecv := net.Pipe()
			jChaos := transport.NewChaos(jSink, 1003, transport.WithPartialWrites(0.4))
			subJ, err := ch.Subscribe(jChaos, policy)
			if err != nil {
				t.Fatal(err)
			}
			jDone := make(chan recvResult, 1)
			go recvAll(t, jRecv, jDone)

			const m = 500
			for i := n; i < n+m; i++ {
				if err := ch.Publish(bind, &Event{Seq: int32(i), Temp: float64(i)}); err != nil {
					t.Fatalf("publish %d: %v", i, err)
				}
			}

			ch.Sync()
			if err := subA.Close(); err != nil {
				t.Errorf("subscriber A failed: %v", err)
			}
			if err := subJ.Close(); err != nil {
				t.Errorf("joiner failed: %v", err)
			}
			aChaos.Close()
			jChaos.Close()
			a, j := <-aDone, <-jDone

			if policy == Block {
				// Lossless: every event, in order, despite the torn link.
				if a.count != n+m || a.last != int32(n+m-1) {
					t.Errorf("Block subscriber got %d/%d events, last seq %d", a.count, n+m, a.last)
				}
				if j.count != m || j.first != int32(n) {
					t.Errorf("Block joiner got %d/%d events, first seq %d (want %d)", j.count, m, j.first, n)
				}
			} else {
				if a.count < 1 || a.count > n+m {
					t.Errorf("%v subscriber got %d events, want 1..%d", policy, a.count, n+m)
				}
				if j.count < 1 || j.first < int32(n) {
					t.Errorf("%v joiner got %d events, first seq %d (want >= %d)", policy, j.count, j.first, n)
				}
			}
			if st := ch.Stats(); st.Published != int64(n+m) {
				t.Errorf("published = %d, want %d", st.Published, n+m)
			}

			// Pool invariant: a double-released frame buffer would count two
			// puts for one get.  Sample puts first so a concurrent get
			// cannot fake a violation.
			puts, _ := obs.Default().Value("pbio_pool_put_total")
			gets, _ := obs.Default().Value("pbio_pool_get_total")
			if puts > gets {
				t.Fatalf("pool invariant violated: %v puts > %v gets (double release)", puts, gets)
			}
		})
	}
}

// readRawFrame reads one transport frame (header, kind, payload) from r.
func readRawFrame(rd io.Reader) (byte, []byte, error) {
	var hdr [transport.FrameHeaderSize]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 {
		return 0, nil, errors.New("frame size out of range")
	}
	payload := make([]byte, int(n)-1)
	if _, err := io.ReadFull(rd, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// TestJoinerReplayAfterPublisherReset runs the full daemon path per
// policy: a publisher whose connection resets mid-frame, then a
// mid-stream subscriber that must receive the channel's format
// announcement before its first data frame and a clean event stream — no
// fragment of the torn frame may surface.
func TestJoinerReplayAfterPublisherReset(t *testing.T) {
	for _, policy := range []Policy{Block, DropOldest, DropNewest} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			srv, addr := startServer(t)
			defer srv.Close()

			// Publisher 1: chaos-reset connection, dies mid-frame.
			pc, err := dialRole(addr, "PUB join_"+policy.String())
			if err != nil {
				t.Fatal(err)
			}
			pctx, bind := eventBinding(t, platform.X86)
			chaos := transport.NewChaos(pc.conn, 7001, transport.WithReset(600))
			pub := transport.NewConn(chaos, pctx)
			var pubErr error
			for i := 0; i < 200; i++ {
				if pubErr = pub.Send(bind, &Event{Seq: int32(i), Temp: 1}); pubErr != nil {
					break
				}
			}
			if !errors.Is(pubErr, transport.ErrChaosReset) {
				t.Fatalf("publisher survived 200 sends through a 600-byte reset (err=%v)", pubErr)
			}

			// Subscriber joins after the reset, reading raw frames so the
			// announcement-before-data contract is checked on the wire.
			sc, err := dialRole(addr, "SUB join_"+policy.String()+" "+policy.String())
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			sc.conn.SetDeadline(time.Now().Add(10 * time.Second))

			// Publisher 2: clean connection, same format.
			p2ctx, bind2 := eventBinding(t, platform.Sparc64)
			pub2, err := DialPublisher(addr, "join_"+policy.String(), p2ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer pub2.Close()
			const m = 20
			for i := 0; i < m; i++ {
				if err := pub2.Send(bind2, &Event{Seq: int32(1000 + i), Temp: float64(i)}); err != nil {
					t.Fatalf("publish %d: %v", i, err)
				}
			}

			// The subscriber may also see complete frames publisher 1 got
			// onto the wire before its reset (the broker was still draining
			// them) — those must decode cleanly and stay in publisher order;
			// nothing of the torn frame may surface.  Read until publisher
			// 2's last event arrives.
			subCtx := pbio.NewContext()
			sawFormat := false
			var pre, post []int32
			for len(post) < m {
				kind, payload, err := readRawFrame(sc.rd)
				if err != nil {
					t.Fatalf("after %d+%d events: %v", len(pre), len(post), err)
				}
				switch kind {
				case transport.FrameFormat:
					f, err := meta.ParseCanonical(payload)
					if err != nil {
						t.Fatalf("bad announcement: %v", err)
					}
					if f.Name != "Event" {
						t.Fatalf("announced format %q, want Event", f.Name)
					}
					if _, err := subCtx.RegisterFormat(f); err != nil {
						t.Fatal(err)
					}
					sawFormat = true
				case transport.FrameData:
					if !sawFormat {
						t.Fatalf("data frame before any format announcement")
					}
					var ev Event
					if _, err := subCtx.Decode(payload, &ev); err != nil {
						t.Fatalf("event %d undecodable (torn-frame leak?): %v", len(pre)+len(post), err)
					}
					if ev.Seq < 1000 {
						pre = append(pre, ev.Seq)
					} else {
						post = append(post, ev.Seq)
					}
				default:
					t.Fatalf("unknown frame kind %d", kind)
				}
			}
			for i := 1; i < len(pre); i++ {
				if pre[i] <= pre[i-1] {
					t.Fatalf("dead publisher's events out of order: %v", pre)
				}
			}
			for i, seq := range post {
				if seq != int32(1000+i) {
					t.Fatalf("event %d: seq %d, want %d (stream corrupted by dead publisher)", i, seq, 1000+i)
				}
			}
		})
	}
}
