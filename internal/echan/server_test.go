package echan

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/open-metadata/xmit/internal/fmtserver"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/registry"
	"github.com/open-metadata/xmit/internal/transport"
)

func startServer(t *testing.T, opts ...BrokerOption) (*Server, string) {
	t.Helper()
	opts = append([]BrokerOption{WithRegistry(obs.NewRegistry())}, opts...)
	srv := NewServer(NewBroker(opts...))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		srv.Broker().Close()
	})
	return srv, addr
}

// TestServerPubSub drives the full daemon path: a TCP publisher fans out
// through the broker to two TCP subscribers, a late joiner decodes
// mid-stream, STATS/LIST answer over the control connection, and UNSUB
// drains before EOF.
func TestServerPubSub(t *testing.T) {
	_, addr := startServer(t)

	sctx, bind := eventBinding(t, platform.Sparc32)
	pub, err := DialPublisher(addr, "weather", sctx)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	sub1, err := DialSubscriber(addr, "weather", Block, 0, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer sub1.Close()

	if err := pub.Send(bind, &Event{Seq: 1, Temp: 10}); err != nil {
		t.Fatal(err)
	}
	var out Event
	if f, err := sub1.Recv(&out); err != nil || f.Name != "Event" || out.Seq != 1 {
		t.Fatalf("sub1 first recv: %v %+v", err, out)
	}

	// Late joiner: a fresh context, subscribing after the format was
	// announced — the broker must replay the announcement.
	sub2, err := DialSubscriber(addr, "weather", Block, 8, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	if err := pub.Send(bind, &Event{Seq: 2, Temp: 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := sub2.Recv(&out); err != nil || out.Seq != 2 {
		t.Fatalf("late joiner recv: %v %+v", err, out)
	}
	if _, err := sub1.Recv(&out); err != nil || out.Seq != 2 {
		t.Fatalf("sub1 second recv: %v %+v", err, out)
	}

	ctl, err := DialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	names, err := ctl.List()
	if err != nil || len(names) != 1 || names[0] != "weather" {
		t.Errorf("List = %v, %v", names, err)
	}
	// A subscriber can read its frame before the broker's writer goroutine
	// has counted the delivery, so Delivered is polled, not read once.
	var st ChannelStats
	waitFor(t, "Delivered >= 3", func() bool {
		if st, err = ctl.Stats("weather"); err != nil {
			t.Fatal(err)
		}
		return st.Delivered >= 3
	})
	if st.Published != 2 || st.Subscribers != 2 {
		t.Errorf("stats %+v", st)
	}

	// UNSUB: the broker drains and closes; the subscriber sees EOF after
	// any queued frames.
	if err := sub2.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := sub2.Recv(&out); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Errorf("post-UNSUB recv error: %v", err)
			}
			break
		}
	}
	srvSt, err := ctl.Stats("weather")
	if err != nil {
		t.Fatal(err)
	}
	if srvSt.Subscribers != 1 {
		t.Errorf("subscribers after UNSUB = %d, want 1", srvSt.Subscribers)
	}
}

// TestServerDerive creates a filtered channel over the control connection
// and subscribes to it through the daemon.
func TestServerDerive(t *testing.T) {
	_, addr := startServer(t)

	ctl, err := DialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Create("readings"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Derive("hot", "readings", "temp >= 30"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Create("readings"); err == nil {
		t.Error("duplicate CREATE succeeded")
	}

	sctx, bind := eventBinding(t, platform.X8664)
	pub, err := DialPublisher(addr, "readings", sctx)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	hot, err := DialSubscriber(addr, "hot", Block, 0, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer hot.Close()

	for i := 1; i <= 5; i++ {
		if err := pub.Send(bind, &Event{Seq: int32(i), Temp: float64(10 * i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []int32{3, 4, 5} {
		var out Event
		if _, err := hot.Recv(&out); err != nil {
			t.Fatal(err)
		}
		if out.Seq != want {
			t.Errorf("derived subscriber got seq %d, want %d", out.Seq, want)
		}
	}
}

func TestServerProtocolErrors(t *testing.T) {
	_, addr := startServer(t)
	ctl, err := DialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	for _, line := range []string{
		"BOGUS", "CREATE", "CREATE bad name", "SUB ch lossy",
		"DERIVE d p not-a-filter", "STATS missing", "UNSUB",
	} {
		if _, err := ctl.Do(line); err == nil {
			t.Errorf("%q succeeded, want ERR", line)
		}
	}
	// The connection survives errors and still works.
	if err := ctl.Create("ok"); err != nil {
		t.Errorf("create after errors: %v", err)
	}
}

// TestServerResolvesOutOfBandPublisher: the broker's context (WithContext;
// echod gives it a format-server resolver) is where an out-of-band
// publisher's format IDs resolve.  Such a publisher sends no metadata, so a
// broker whose context cannot resolve the ID drops it.
func TestServerResolvesOutOfBandPublisher(t *testing.T) {
	fsReg := fmtserver.NewRegistry()
	sctx, bind := eventBinding(t, platform.Sparc32)
	if _, err := fsReg.Register(bind.Format()); err != nil {
		t.Fatal(err)
	}

	_, addr := startServer(t, WithContext(pbio.NewContext(pbio.WithResolver(fsReg))))
	sub, err := DialSubscriber(addr, "oob", Block, 0, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := DialPublisherConn(addr, "oob", sctx, transport.WithMode(transport.OutOfBand))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Send(bind, &Event{Seq: 7, Temp: 1.5}); err != nil {
		t.Fatal(err)
	}
	// A broker that cannot resolve the ID drops the publisher and sends
	// nothing; the deadline turns that into a failure instead of a hang.
	sub.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var out Event
	if _, err := sub.Recv(&out); err != nil || out != (Event{Seq: 7, Temp: 1.5}) {
		t.Fatalf("subscriber got %+v, %v", out, err)
	}
	if n := pub.Stats().FormatsAnnounced; n != 0 {
		t.Errorf("out-of-band publisher announced %d formats, want 0", n)
	}

	_, bare := startServer(t)
	blind, err := DialPublisherConn(bare, "oob", sctx, transport.WithMode(transport.OutOfBand))
	if err != nil {
		t.Fatal(err)
	}
	defer blind.Close()
	if err := blind.Send(bind, &Event{Seq: 8}); err != nil {
		t.Fatal(err)
	}
	if err := blind.Status(5 * time.Second); err == nil {
		t.Error("a broker with no resolver accepted an unknown format ID")
	}
}

// TestCompatErrorCrossesSockets: a schema-policy rejection keeps its
// structure on the wire.  A narrowing publish under a BACKWARD policy
// reaches the publisher as a *registry.CompatError, with lineage, policy,
// offending field and both format IDs intact, both from the home broker
// and through a mesh peer that pipes the publisher's bytes to the home
// (forwardPublisher).
func TestCompatErrorCrossesSockets(t *testing.T) {
	_, home, _, sr := evolveMeshServer(t, 0)
	peer, via, _, _ := evolveMeshServer(t, 0)
	peer.AddPeer(home)
	ctl, err := DialControl(home)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Create("telemetry"); err != nil {
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

	for _, c := range []struct{ name, addr string }{{"home", home}, {"mesh hop", via}} {
		t.Run(c.name, func(t *testing.T) {
			pub, err := DialPublisherConn(c.addr, "telemetry", pbio.NewContext(pbio.WithPlatform(platform.X8664)))
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()
			for _, f := range []*meta.Format{chain[0], narrowed} {
				rec := pbio.NewRecord(f)
				if err := rec.Set("id", 1); err != nil {
					t.Fatal(err)
				}
				if err := pub.SendRecord(rec); err != nil {
					t.Fatal(err)
				}
			}
			err = pub.Status(5 * time.Second)
			var ce *registry.CompatError
			if !errors.As(err, &ce) {
				t.Fatalf("publisher got %v, want a *registry.CompatError", err)
			}
			if ce.Lineage != "telemetry" || ce.Policy != registry.PolicyBackward || ce.FromVersion != 1 {
				t.Errorf("rejection names lineage %q, policy %v, v%d; want telemetry, backward, v1",
					ce.Lineage, ce.Policy, ce.FromVersion)
			}
			if len(ce.Violations) != 1 || ce.Violations[0].Path != "value" {
				t.Errorf("violations = %+v, want the value field alone", ce.Violations)
			}
			if ce.ToID != narrowed.ID() || ce.FromID != chain[0].ID() {
				t.Errorf("rejection names formats %s against %s; want %s against %s",
					ce.ToID, ce.FromID, narrowed.ID(), chain[0].ID())
			}
		})
	}
	l, err := sr.Lineage("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Errorf("home lineage has %d versions after two rejected publishes, want 1", l.Len())
	}
}

func FuzzParseCommand(f *testing.F) {
	for _, seed := range []string{
		"CREATE weather", "CREATE weather oob", "PUB weather",
		"SUB weather block", "SUB weather drop_oldest 16", "UNSUB",
		"STATS weather", "LIST", "DERIVE hot weather temp >= 30",
		"DERIVE h w site == 'up stream' && seq != 3",
		"create lower", "SUB a b c d", "", "   ", "CREATE \x00",
		"SUB weather block 16 version=1 after=42",
		"LINEAGES", "LINEAGES weather", "LINEAGES after=17",
		"LINEAGES after=17 after=18", "LINEAGES weather after=17 x",
		strings.Repeat("A ", 300),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		cmd, err := ParseCommand(line)
		if err != nil {
			return
		}
		// A command that parses must be safe to execute: names valid,
		// and DERIVE filters compile.
		switch cmd.Verb {
		case VerbUnsub, VerbList, VerbPeers, VerbMesh, VerbHello:
		case VerbLineages:
			// Both the broker-wide form (no name) and the narrowed form.
			if cmd.Name != "" && !validName(cmd.Name) {
				t.Fatalf("ParseCommand(%q) accepted invalid name %q", line, cmd.Name)
			}
		default:
			if !validName(cmd.Name) {
				t.Fatalf("ParseCommand(%q) accepted invalid name %q", line, cmd.Name)
			}
		}
		if cmd.Verb == VerbDerive {
			if !validName(cmd.Parent) {
				t.Fatalf("ParseCommand(%q) accepted invalid parent %q", line, cmd.Parent)
			}
			if _, err := ParseFilter(cmd.Filter); err != nil {
				t.Fatalf("ParseCommand(%q) accepted uncompilable filter %q: %v", line, cmd.Filter, err)
			}
		}
		if cmd.Verb == VerbSub && cmd.Queue < 0 {
			t.Fatalf("ParseCommand(%q) accepted negative queue", line)
		}
	})
}
