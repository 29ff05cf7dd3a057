package echan

import (
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
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
