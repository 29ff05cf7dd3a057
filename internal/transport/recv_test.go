package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
)

// readOnly adapts a reader to the ReadWriteCloser a Conn wraps, for
// receive-only tests.
type readOnly struct{ io.Reader }

func (readOnly) Write([]byte) (int, error) { return 0, errors.New("read-only stream") }
func (readOnly) Close() error              { return nil }

// sink collects what a sending Conn puts on the wire.
type sink struct{ bytes.Buffer }

func (*sink) Close() error { return nil }

// readCounter counts the Read calls that reach the underlying stream.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// wireOf returns the bytes one in-band connection sends for msgs: a format
// announcement, then one data frame per message.
func wireOf(t testing.TB, msgs []SimpleData) []byte {
	t.Helper()
	ctx, b := senderContext(t, platform.X8664)
	var w sink
	c := NewConn(&w, ctx)
	for i := range msgs {
		if err := c.Send(b, &msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return w.Bytes()
}

// smallMsgs returns n messages of about 100 bytes, the size stream_small
// sends.
func smallMsgs(n int) []SimpleData {
	msgs := make([]SimpleData, n)
	for i := range msgs {
		msgs[i] = SimpleData{Timestep: int32(i), Data: make([]float32, 20)}
		msgs[i].Data[i%20] = float32(i)
	}
	return msgs
}

// TestRecvReadsInBlocks: frames that arrive together are read together.
// Reading the header and the payload of each frame straight off the stream
// took two reads per frame (128 for these 64).
func TestRecvReadsInBlocks(t *testing.T) {
	rc := &readCounter{r: bytes.NewReader(wireOf(t, smallMsgs(64)))}
	c := NewConn(readOnly{rc}, pbio.NewContext())
	for i := 0; i < 64; i++ {
		if _, _, err := c.RecvMessage(); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	if rc.reads > 3 {
		t.Errorf("64 frames took %d reads of the stream, want <= 3", rc.reads)
	}
}

// received is what RecvMessage yielded, copied out of the receive buffer.
type received struct {
	format string
	body   []byte
}

func recvN(t *testing.T, c *Conn, n int) []received {
	t.Helper()
	var out []received
	for i := 0; i < n; i++ {
		f, body, err := c.RecvMessage()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		out = append(out, received{f.Name, bytes.Clone(body)})
	}
	return out
}

// TestRecvChunkingInvariant: however the stream splits the bytes — one byte
// per read, half of each request, the last bytes arriving with io.EOF — the
// frames received are the frames received from one chunk, including frames
// larger than the read buffer, in the middle and at the end.
func TestRecvChunkingInvariant(t *testing.T) {
	msgs := smallMsgs(8)
	for _, i := range []int{5, 7} { // 8 KB frames: past the 4 KB buffer
		msgs[i].Data = make([]float32, 2000)
		msgs[i].Data[1999] = float32(i)
	}
	wire := wireOf(t, msgs)
	want := recvN(t, NewConn(readOnly{bytes.NewReader(wire)}, pbio.NewContext()), len(msgs))
	for name, r := range map[string]io.Reader{
		"OneByteReader": iotest.OneByteReader(bytes.NewReader(wire)),
		"HalfReader":    iotest.HalfReader(bytes.NewReader(wire)),
		"DataErrReader": iotest.DataErrReader(bytes.NewReader(wire)),
	} {
		c := NewConn(readOnly{r}, pbio.NewContext())
		got := recvN(t, c, len(msgs))
		for i := range want {
			if got[i].format != want[i].format || !bytes.Equal(got[i].body, want[i].body) {
				t.Errorf("%s: message %d differs from the one-chunk receive", name, i)
			}
		}
		if _, _, err := c.RecvMessage(); err != io.EOF {
			t.Errorf("%s: after the last frame got %v, want io.EOF", name, err)
		}
		if n := c.Stats().BytesReceived; n != int64(len(wire)) {
			t.Errorf("%s: BytesReceived = %d, want %d", name, n, len(wire))
		}
	}
}

// TestRecvOversizeFrameBuffered: an over-cap frame that arrives in the same
// chunk as its neighbours is drained out of the buffer, and the frame after
// it decodes.
func TestRecvOversizeFrameBuffered(t *testing.T) {
	msgs := smallMsgs(3)
	msgs[1].Data = make([]float32, 2000) // 8 KB, over the 512-byte cap
	wire := wireOf(t, msgs)
	for name, r := range map[string]io.Reader{
		"one chunk": bytes.NewReader(wire),
		"one byte":  iotest.OneByteReader(bytes.NewReader(wire)),
	} {
		c := NewConn(readOnly{r}, pbio.NewContext(), WithMaxFrame(512))
		var out SimpleData
		if _, err := c.Recv(&out); err != nil || out.Timestep != 0 {
			t.Fatalf("%s: first message: %v (timestep %d)", name, err, out.Timestep)
		}
		if _, err := c.Recv(&out); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("%s: oversize frame returned %v, want ErrFrameTooLarge", name, err)
		}
		if _, err := c.Recv(&out); err != nil || out.Timestep != 2 {
			t.Fatalf("%s: message after the oversize frame: %v (timestep %d)", name, err, out.Timestep)
		}
	}
}

// TestRecvEndOfStream: a stream that ends between frames reads io.EOF; one
// that ends inside a header, a payload or a drained over-cap payload reads
// io.ErrUnexpectedEOF.
func TestRecvEndOfStream(t *testing.T) {
	wire := wireOf(t, smallMsgs(1))
	announce := FrameHeaderSize + int(binary.BigEndian.Uint32(wire)) - 1
	for _, tc := range []struct {
		name     string
		stream   []byte
		maxFrame int
		want     error
	}{
		{"empty", nil, 0, io.EOF},
		{"after announcement", wire[:announce], 0, io.EOF},
		{"inside header", wire[:announce+3], 0, io.ErrUnexpectedEOF},
		{"after header", wire[:announce+FrameHeaderSize], 0, io.ErrUnexpectedEOF},
		{"inside payload", wire[:len(wire)-1], 0, io.ErrUnexpectedEOF},
		{"inside drained payload", wire[:announce-1], 16, io.ErrUnexpectedEOF},
	} {
		c := NewConn(readOnly{bytes.NewReader(tc.stream)}, pbio.NewContext(), WithMaxFrame(tc.maxFrame))
		if _, _, err := c.RecvMessage(); err != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// loopReader serves the same bytes forever without allocating.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestRecvMessageAllocs: a steady-state receive allocates nothing — the
// header is parsed in the read buffer and the payload lands in the reused
// receive buffer.
func TestRecvMessageAllocs(t *testing.T) {
	ctx, b := senderContext(t, platform.X8664)
	var w sink
	s := NewConn(&w, ctx, WithMode(OutOfBand))
	for _, m := range smallMsgs(7) { // 7 frames do not divide the 4 KB buffer
		if err := s.Send(b, &m); err != nil {
			t.Fatal(err)
		}
	}
	rctx := pbio.NewContext()
	if _, err := rctx.RegisterFormat(b.Format()); err != nil {
		t.Fatal(err)
	}
	c := NewConn(readOnly{&loopReader{b: w.Bytes()}}, rctx)
	recv := func() {
		if _, _, err := c.RecvMessage(); err != nil {
			t.Fatal(err)
		}
	}
	recv() // the read buffer and receive buffer are made once
	if n := testing.AllocsPerRun(1000, recv); n != 0 {
		t.Errorf("RecvMessage: %v allocs/op, want 0", n)
	}
}

// fuzzMaxFrame keeps hostile length fields cheap while still letting a
// frame outgrow the 4 KB read buffer.
const fuzzMaxFrame = 6 << 10

// chunkReader hands out b in pieces of 1+cuts[i] bytes, cycling through
// cuts; with no cuts, all of b in one read.
type chunkReader struct {
	b, cuts []byte
	i       int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := len(r.b)
	if len(r.cuts) > 0 {
		n = 1 + int(r.cuts[r.i%len(r.cuts)])
		r.i++
	}
	n = copy(p, r.b[:min(n, len(r.b))])
	r.b = r.b[n:]
	return n, nil
}

// outcome names one RecvMessage result: the message, or the class of error.
func outcome(f *meta.Format, body []byte, err error) string {
	switch {
	case err == nil:
		return fmt.Sprintf("message %s %x", f.Name, body)
	case err == io.EOF:
		return "end of stream"
	case err == io.ErrUnexpectedEOF:
		return "truncated frame"
	case errors.Is(err, ErrFrameTooLarge):
		return "frame over cap"
	}
	return "error"
}

// recvOutcomes receives until an error other than an over-cap frame.
func recvOutcomes(c *Conn) []string {
	var out []string
	for {
		f, body, err := c.RecvMessage()
		out = append(out, outcome(f, body, err))
		if err != nil && !errors.Is(err, ErrFrameTooLarge) {
			return out
		}
	}
}

// refOutcomes is the reference parse: the whole stream in hand, frames cut
// by index arithmetic, the same decisions in the same order as Conn.
func refOutcomes(stream []byte) []string {
	ctx := pbio.NewContext()
	var out []string
	for {
		if len(stream) == 0 {
			return append(out, outcome(nil, nil, io.EOF))
		}
		if len(stream) < FrameHeaderSize {
			return append(out, outcome(nil, nil, io.ErrUnexpectedEOF))
		}
		n, kind := binary.BigEndian.Uint32(stream), stream[4]
		stream = stream[FrameHeaderSize:]
		if n < 1 {
			return append(out, "error")
		}
		if uint64(len(stream)) < uint64(n)-1 {
			return append(out, outcome(nil, nil, io.ErrUnexpectedEOF))
		}
		payload := stream[:n-1]
		stream = stream[n-1:]
		if n > fuzzMaxFrame {
			out = append(out, outcome(nil, nil, ErrFrameTooLarge))
			continue
		}
		switch kind {
		case FrameFormat:
			f, err := meta.ParseCanonical(payload)
			if err == nil {
				_, err = ctx.RegisterFormat(f)
			}
			if err != nil {
				return append(out, "error")
			}
		case FrameData:
			id, body, err := pbio.ParseHeader(payload)
			var f *meta.Format
			if err == nil {
				f, err = ctx.LookupFormat(id)
			}
			if err != nil {
				return append(out, "error")
			}
			out = append(out, outcome(f, body, nil))
		default:
			return append(out, "error")
		}
	}
}

// FuzzRecvChunking: whatever the bytes and however the stream splits them,
// RecvMessage yields exactly the messages and the error the whole-buffer
// reference parse does, and never panics.
func FuzzRecvChunking(f *testing.F) {
	msgs := smallMsgs(4)
	msgs[2].Data = make([]float32, 1200) // 4.8 KB: bypasses the read buffer
	msgs[3].Data = make([]float32, 1600) // 6.4 KB: over fuzzMaxFrame, drained
	wire := wireOf(f, msgs)
	announce := FrameHeaderSize + int(binary.BigEndian.Uint32(wire)) - 1
	for _, seed := range []struct{ stream, cuts []byte }{
		{wire, nil},
		{wire, []byte{0}},
		{wire, []byte{7, 200, 3, 255}},
		{wire[:len(wire)-9], []byte{64}},
		{append(bytes.Clone(wire[:announce]), 0, 0, 0, 0, FrameData), nil}, // zero-length frame
		{[]byte{0, 0, 0, 3, 7, 1, 2}, []byte{1}},                           // unknown kind
	} {
		f.Add(seed.stream, seed.cuts)
	}
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		c := NewConn(readOnly{&chunkReader{b: stream, cuts: cuts}}, pbio.NewContext(), WithMaxFrame(fuzzMaxFrame))
		got, want := recvOutcomes(c), refOutcomes(stream)
		if len(got) != len(want) {
			t.Fatalf("received %d outcomes, reference %d:\n got %q\nwant %q", len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("outcome %d: got %q, want %q", i, got[i], want[i])
			}
		}
	})
}
