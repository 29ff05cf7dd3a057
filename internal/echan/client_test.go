package echan

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/transport"
)

// fakeBroker accepts one connection, reads its first control line, and
// answers with reply(line) in a single Write, so whatever follows the
// response line reaches the client in the same segment as the line.  The
// connection stays open until the test ends.
func fakeBroker(t *testing.T, reply func(line string) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if line, err := readLine(bufio.NewReader(conn)); err == nil {
			conn.Write(reply(line))
		}
		<-stop
	}()
	t.Cleanup(func() {
		close(stop)
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// announcedEvent returns one event as a PBIO message, and the frame that
// announces its format.
func announcedEvent(t *testing.T, seq int32) (msg, announce []byte) {
	t.Helper()
	_, bind := eventBinding(t, platform.Sparc32)
	msg, err := bind.AppendEncode(nil, &Event{Seq: seq, Temp: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	return msg, transport.AppendFrame(nil, transport.FrameFormat, bind.Format().Canonical())
}

// TestSubscriberFramesWithHandshake: frames that arrive in the same
// segment as "OK subscribed" are the start of the subscriber's stream.
func TestSubscriberFramesWithHandshake(t *testing.T) {
	msg, announce := announcedEvent(t, 42)
	addr := fakeBroker(t, func(string) []byte {
		out := append([]byte("OK subscribed ch gen=0\n"), announce...)
		return transport.AppendFrame(out, transport.FrameData, msg)
	})
	sub, err := DialSubscriber(addr, "ch", Block, 0, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ev Event
	if _, err := sub.Recv(&ev); err != nil || ev.Seq != 42 {
		t.Fatalf("Recv = %+v, %v; want seq 42", ev, err)
	}
}

// TestLinkFramesWithHandshake: the same for a mesh link's session.
func TestLinkFramesWithHandshake(t *testing.T) {
	msg, announce := announcedEvent(t, 7)
	home := fakeBroker(t, func(line string) []byte {
		if !strings.HasPrefix(line, "SUB lnk ") || !strings.HasSuffix(line, " link") {
			return []byte("ERR unexpected " + line + "\n")
		}
		out := append([]byte("OK subscribed lnk gen=41\n"), announce...)
		return transport.AppendSeqFrame(out, 42, 42, msg)
	})
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	m := NewMesh(b, "127.0.0.1:1")
	defer m.Close()
	l, err := m.ensureLink("lnk", home)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the link to re-publish the event", func() bool { return l.Stats().Events == 1 })
	if st := l.Stats(); st.LastGen != 42 {
		t.Errorf("link last generation = %d, want 42", st.LastGen)
	}
}

// TestPublisherStatusWithHandshake: an ERR line that arrives in the same
// segment as the PUB handshake's "OK" is what Status reports.
func TestPublisherStatusWithHandshake(t *testing.T) {
	addr := fakeBroker(t, func(string) []byte {
		return []byte("OK publishing ch\nERR rejected for test\n")
	})
	p, err := DialPublisherConn(addr, "ch", pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Status(5 * time.Second); err == nil || !strings.Contains(err.Error(), "rejected for test") {
		t.Fatalf("Status = %v, want the broker's rejection", err)
	}
}

// TestResponseLineBounded: a response with no newline is an error once
// maxCommandLine bytes have arrived, however much more the peer sends.
func TestResponseLineBounded(t *testing.T) {
	addr := fakeBroker(t, func(string) []byte {
		return []byte(strings.Repeat("A", 3*maxCommandLine))
	})
	c, err := DialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Do("LIST"); err == nil || !strings.Contains(err.Error(), "over 4096 bytes") {
		t.Fatalf("Do = %v, want the line-length error", err)
	}
}

// TestLineagesSizeCapped: a LINEAGES answer announcing a 1 TiB document is
// refused before anything is allocated, from a control client and from a
// mesh peer's gossip pull alike.
func TestLineagesSizeCapped(t *testing.T) {
	const huge = "OK rev=1 bytes=1099511627776\n"
	addr := fakeBroker(t, func(string) []byte { return []byte(huge) })
	c, err := DialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Lineages("", 0); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("Client.Lineages = %v, want the size-cap error", err)
	}

	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	m := NewMesh(b, "127.0.0.1:1")
	defer m.Close()
	peer := fakeBroker(t, func(string) []byte { return []byte(huge) })
	if _, _, err := m.fetchLineages(peer, "", 0); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("Mesh.fetchLineages = %v, want the size-cap error", err)
	}
}

// stepReader plays a script: each Read returns the next chunk, or the next
// error.
type stepReader []any

func (r *stepReader) Read(p []byte) (int, error) {
	if len(*r) == 0 {
		return 0, io.EOF
	}
	step := (*r)[0]
	*r = (*r)[1:]
	if err, ok := step.(error); ok {
		return 0, err
	}
	return copy(p, step.(string)), nil
}

// TestReadLineKeepsPartialLine: a read error (a Status deadline) in the
// middle of a line loses nothing; the next call returns the whole line and
// leaves what follows it buffered.
func TestReadLineKeepsPartialLine(t *testing.T) {
	rd := bufio.NewReader(&stepReader{"ERR half", os.ErrDeadlineExceeded, " a line\r\nnext"})
	if _, err := readLine(rd); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("first readLine = %v, want the deadline error", err)
	}
	line, err := readLine(rd)
	if err != nil || line != "ERR half a line" {
		t.Fatalf("second readLine = %q, %v", line, err)
	}
	if rest, _ := rd.Peek(rd.Buffered()); string(rest) != "next" {
		t.Errorf("left buffered %q, want %q", rest, "next")
	}
}
