// Package transport moves PBIO messages between processes: a framed,
// bidirectional message stream over TCP (or any io.ReadWriteCloser), with
// metadata travelling either in-band (announced once per connection before
// a format's first use) or out-of-band through a format server configured
// on the receiving context.
//
// The framing mirrors how PBIO-based systems operate: format metadata is
// exchanged rarely, at connection setup or when a format first appears;
// data messages carry only the 8-byte format ID.  The per-message cost is
// therefore exactly the marshal cost the paper measures.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
)

// Frame kinds.  They are exported so layers that speak the same wire format
// (the event-channel broker, chiefly) frame through this package rather
// than re-deriving the layout.
const (
	// FrameFormat frames canonical format metadata.
	FrameFormat = 1
	// FrameData frames a complete PBIO message: the 8-byte format ID
	// followed by the message body.
	FrameData = 2
)

// FrameHeaderSize is the length of a frame header: a 4-byte big-endian
// length (covering the kind byte and payload) followed by the 1-byte kind.
const FrameHeaderSize = 5

// DefaultMaxFrame bounds a single message when WithMaxFrame is not given
// (64 MiB, far above any benchmark size).
const DefaultMaxFrame = 64 << 20

// ErrFrameTooLarge reports a frame beyond the connection's size limit.  On
// send it is returned before any bytes reach the wire; on receive the
// oversized payload is drained so the stream stays framed — in both cases
// the connection remains usable.  Match it with errors.Is.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// Mode selects how receivers learn formats.
type Mode int

const (
	// InBand announces a format's metadata on the connection before its
	// first data message (the default).
	InBand Mode = iota
	// OutOfBand sends no metadata; the receiving context must resolve
	// unknown IDs itself (e.g. via a format server resolver).
	OutOfBand
)

// Conn is a message-oriented connection bound to a PBIO context.
// Concurrent Sends are serialised internally; Recv must be driven by a
// single goroutine.
//
// Sends marshal into pooled buffers (see pbio.GetBuffer) and hand the
// underlying stream one contiguous frame per Write, so a steady-state send
// performs no allocation and one syscall.
type Conn struct {
	rwc io.ReadWriteCloser
	ctx *pbio.Context

	mode     Mode
	maxFrame int // frame size cap (DefaultMaxFrame unless WithMaxFrame)

	sendMu    sync.Mutex
	announced map[meta.FormatID]bool

	// rd is the receive side's one buffered reader (bufio's default 4 KB),
	// created at the first receive so a send-only connection pays nothing,
	// or handed over by NewConnReader.  Small frames then cost one read(2)
	// per buffer-full instead of two per frame.
	rd      *bufio.Reader
	recvBuf []byte

	stats connStats
}

// connStats holds atomic traffic counters.
type connStats struct {
	messagesSent     atomic.Int64
	messagesReceived atomic.Int64
	bytesSent        atomic.Int64
	bytesReceived    atomic.Int64
	formatsAnnounced atomic.Int64
	formatsLearned   atomic.Int64
}

// Stats is a snapshot of a connection's traffic counters.  Byte counts
// include frame headers; metadata frames count toward bytes but not toward
// message counts, which is how the amortisation argument of the paper is
// made observable: FormatsAnnounced stays constant while MessagesSent
// grows.
type Stats struct {
	MessagesSent     int64
	MessagesReceived int64
	BytesSent        int64
	BytesReceived    int64
	FormatsAnnounced int64
	FormatsLearned   int64
}

// Stats returns a snapshot of the connection's counters.
func (c *Conn) Stats() Stats {
	return Stats{
		MessagesSent:     c.stats.messagesSent.Load(),
		MessagesReceived: c.stats.messagesReceived.Load(),
		BytesSent:        c.stats.bytesSent.Load(),
		BytesReceived:    c.stats.bytesReceived.Load(),
		FormatsAnnounced: c.stats.formatsAnnounced.Load(),
		FormatsLearned:   c.stats.formatsLearned.Load(),
	}
}

// PublishStats registers the connection's live counters in an obs registry
// under the given prefix (e.g. "transport"), as computed metrics that read
// the same atomics Stats snapshots — zero overhead on the data path.  The
// exported pair prefix_formats_announced / prefix_messages_sent is the
// paper's amortisation argument as a dashboard: the former stays flat
// while the latter grows.
func (c *Conn) PublishStats(reg *obs.Registry, prefix string) {
	read := func(v *atomic.Int64) obs.Func {
		return func() float64 { return float64(v.Load()) }
	}
	reg.RegisterFunc(prefix+"_messages_sent", read(&c.stats.messagesSent))
	reg.RegisterFunc(prefix+"_messages_received", read(&c.stats.messagesReceived))
	reg.RegisterFunc(prefix+"_bytes_sent", read(&c.stats.bytesSent))
	reg.RegisterFunc(prefix+"_bytes_received", read(&c.stats.bytesReceived))
	reg.RegisterFunc(prefix+"_formats_announced", read(&c.stats.formatsAnnounced))
	reg.RegisterFunc(prefix+"_formats_learned", read(&c.stats.formatsLearned))
}

// ConnOption configures a Conn.
type ConnOption func(*Conn)

// WithMode sets the metadata distribution mode.
func WithMode(m Mode) ConnOption {
	return func(c *Conn) { c.mode = m }
}

// WithMaxFrame caps the size of a single frame (header byte plus payload)
// on both send and receive.  Oversize sends and receives return
// ErrFrameTooLarge without invalidating the connection.  n <= 0 keeps the
// default (DefaultMaxFrame).
func WithMaxFrame(n int) ConnOption {
	return func(c *Conn) {
		if n > 0 {
			c.maxFrame = n
		}
	}
}

// NewConn wraps a byte stream as a message connection using ctx for all
// metadata and marshaling.
func NewConn(rwc io.ReadWriteCloser, ctx *pbio.Context, opts ...ConnOption) *Conn {
	c := &Conn{rwc: rwc, ctx: ctx, maxFrame: DefaultMaxFrame, announced: make(map[meta.FormatID]bool)}
	for _, o := range opts {
		o(c)
	}
	return c
}

// NewConnReader is NewConn for a stream that was read through rd before
// its frames began — a text handshake, typically.  The connection receives
// through rd, so frame bytes that arrived with the handshake and sit in
// rd's buffer are the start of the frame stream, not lost.
func NewConnReader(rwc io.ReadWriteCloser, rd *bufio.Reader, ctx *pbio.Context, opts ...ConnOption) *Conn {
	c := NewConn(rwc, ctx, opts...)
	c.rd = rd
	return c
}

// Context returns the PBIO context the connection uses.
func (c *Conn) Context() *pbio.Context { return c.ctx }

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.rwc.Close() }

// Send marshals v with the binding and transmits it, announcing the
// format's metadata first if this connection hasn't seen it and the mode is
// InBand.  The message is framed inside a pooled buffer and written in a
// single Write, so steady-state sends allocate nothing.
func (c *Conn) Send(b *pbio.Binding, v any) error {
	buf := pbio.GetBuffer()
	defer buf.Release()
	dst := append(buf.B[:0], make([]byte, FrameHeaderSize)...)
	dst, err := b.AppendEncode(dst, v)
	if err != nil {
		return err
	}
	buf.B = dst
	return c.sendFramed(b.ID(), b.Format(), buf)
}

// SendRecord transmits a dynamic record.
func (c *Conn) SendRecord(r *pbio.Record) error {
	id, err := c.ctx.RegisterFormat(r.Format())
	if err != nil {
		return err
	}
	buf := pbio.GetBuffer()
	defer buf.Release()
	dst := append(buf.B[:0], make([]byte, FrameHeaderSize)...)
	dst = pbio.AppendHeader(dst, id)
	dst, err = c.ctx.EncodeRecordBody(dst, r)
	if err != nil {
		return err
	}
	buf.B = dst
	return c.sendFramed(id, r.Format(), buf)
}

// sendFramed finishes a data frame whose buffer holds FrameHeaderSize
// reserved bytes followed by the message, then writes it, announcing the
// format first when the connection needs to.
func (c *Conn) sendFramed(id meta.FormatID, f *meta.Format, buf *pbio.Buffer) error {
	payload := len(buf.B) - FrameHeaderSize
	if payload+1 > c.maxFrame {
		return fmt.Errorf("transport: %d-byte message over the %d-byte cap: %w",
			payload, c.maxFrame, ErrFrameTooLarge)
	}
	PutFrameHeader(buf.B, FrameData)

	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.mode == InBand && !c.announced[id] {
		canon := f.Canonical()
		if len(canon)+1 > c.maxFrame {
			return fmt.Errorf("transport: %d-byte payload over the %d-byte cap: %w",
				len(canon), c.maxFrame, ErrFrameTooLarge)
		}
		if err := writeFrame(c.rwc, FrameFormat, canon); err != nil {
			return err
		}
		c.announced[id] = true
		c.stats.formatsAnnounced.Add(1)
		c.stats.bytesSent.Add(int64(len(canon)) + FrameHeaderSize)
	}
	if _, err := c.rwc.Write(buf.B); err != nil {
		return err
	}
	c.stats.messagesSent.Add(1)
	c.stats.bytesSent.Add(int64(len(buf.B)))
	return nil
}

// Recv reads the next data message into out (a pointer to a struct),
// absorbing any metadata announcements that precede it.  It returns the
// wire format that described the message.
func (c *Conn) Recv(out any) (*meta.Format, error) {
	msg, err := c.nextData()
	if err != nil {
		return nil, err
	}
	return c.ctx.Decode(msg, out)
}

// RecvMessage reads the next data message and returns its wire format and
// body, letting the caller dispatch on the format (by name) before decoding
// with Context().DecodeBody.  The body slice is only valid until the next
// receive call.
func (c *Conn) RecvMessage() (*meta.Format, []byte, error) {
	msg, err := c.nextData()
	if err != nil {
		return nil, nil, err
	}
	id, body, err := pbio.ParseHeader(msg)
	if err != nil {
		return nil, nil, err
	}
	f, err := c.ctx.LookupFormat(id)
	if err != nil {
		return nil, nil, err
	}
	return f, body, nil
}

// RecvRecord reads the next data message as a dynamic record — the path a
// component takes for message types it has no compiled struct for.
func (c *Conn) RecvRecord() (*pbio.Record, error) {
	msg, err := c.nextData()
	if err != nil {
		return nil, err
	}
	return c.ctx.DecodeRecord(msg)
}

// nextData returns the payload of the next data frame, processing format
// frames along the way.  The returned slice is valid until the next call.
func (c *Conn) nextData() ([]byte, error) {
	for {
		kind, payload, err := c.readFrame()
		if err != nil {
			return nil, err
		}
		c.stats.bytesReceived.Add(int64(len(payload)) + FrameHeaderSize)
		switch kind {
		case FrameFormat:
			f, err := meta.ParseCanonical(payload)
			if err != nil {
				return nil, fmt.Errorf("transport: bad format announcement: %w", err)
			}
			if _, err := c.ctx.RegisterFormat(f); err != nil {
				return nil, err
			}
			c.stats.formatsLearned.Add(1)
		case FrameData:
			c.stats.messagesReceived.Add(1)
			return payload, nil
		default:
			return nil, fmt.Errorf("transport: unknown frame kind %d", kind)
		}
	}
}

// readFrame reads the next frame through the connection's buffered reader.
// The header is parsed in place in the buffer and the payload is copied
// out of it into recvBuf, except that bufio reads any stretch of at least
// a buffer's length straight into recvBuf.  A stream that ends between
// frames returns io.EOF, one that ends inside a frame io.ErrUnexpectedEOF.
func (c *Conn) readFrame() (byte, []byte, error) {
	if c.rd == nil {
		c.rd = bufio.NewReader(c.rwc)
	}
	hdr, err := c.rd.Peek(FrameHeaderSize)
	if err != nil {
		if len(hdr) > 0 {
			err = midFrame(err)
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	kind := hdr[4]
	c.rd.Discard(FrameHeaderSize) // cannot fail: Peek buffered these bytes
	if n < 1 {
		return 0, nil, fmt.Errorf("transport: frame of %d bytes out of range", n)
	}
	need := int(n) - 1
	if int64(n) > int64(c.maxFrame) {
		// Drain the payload so the stream stays framed; the caller can
		// keep receiving on the same connection.
		if _, err := c.rd.Discard(need); err != nil {
			return 0, nil, midFrame(err)
		}
		c.stats.bytesReceived.Add(int64(need) + FrameHeaderSize)
		return 0, nil, fmt.Errorf("transport: %d-byte frame over the %d-byte cap: %w",
			n, c.maxFrame, ErrFrameTooLarge)
	}
	if cap(c.recvBuf) < need {
		c.recvBuf = make([]byte, need)
	}
	buf := c.recvBuf[:need]
	if _, err := io.ReadFull(c.rd, buf); err != nil {
		return 0, nil, midFrame(err)
	}
	return kind, buf, nil
}

// midFrame reports the end of the stream inside a frame as
// io.ErrUnexpectedEOF; io.EOF means the stream ended between frames.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// writeFrame frames payload in one pooled buffer and hands it to w in a
// single Write: one syscall and one segment per frame.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	buf := pbio.GetBuffer()
	defer buf.Release()
	buf.B = AppendFrame(buf.B, kind, payload)
	_, err := w.Write(buf.B)
	return err
}

// AppendFrame appends a framed payload to dst and returns the extended
// slice.  Callers enforce their frame cap.
func AppendFrame(dst []byte, kind byte, payload []byte) []byte {
	var hdr [FrameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = kind
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// PutFrameHeader fills in the header of a frame built in place: frame holds
// FrameHeaderSize reserved bytes followed by the payload.  Building frames
// this way (reserve, encode, stamp) avoids copying the payload; the
// transport send path and the event-channel broker both use it, so the wire
// layout cannot drift between them.
func PutFrameHeader(frame []byte, kind byte) {
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-FrameHeaderSize+1))
	frame[4] = kind
}

// Pipe returns two connected in-process Conns (for tests and single-process
// pipelines), one bound to each context.
func Pipe(a, b *pbio.Context, opts ...ConnOption) (*Conn, *Conn) {
	ca, cb := net.Pipe()
	return NewConn(ca, a, opts...), NewConn(cb, b, opts...)
}

// Listener accepts message connections bound to a shared context.
type Listener struct {
	ln   net.Listener
	ctx  *pbio.Context
	opts []ConnOption
}

// Listen starts a TCP listener whose accepted connections use ctx.
func Listen(addr string, ctx *pbio.Context, opts ...ConnOption) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{ln: ln, ctx: ctx, opts: opts}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Accept waits for the next connection.
func (l *Listener) Accept() (*Conn, error) {
	conn, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(conn, l.ctx, l.opts...), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.ln.Close() }

// Dial connects to a transport listener.
func Dial(addr string, ctx *pbio.Context, opts ...ConnOption) (*Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(conn, ctx, opts...), nil
}
