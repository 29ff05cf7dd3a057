package echan

import (
	"io"
	"net"

	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/transport"
)

// Delivery sinks: the single contract every consumer of a channel's events
// satisfies.  Two seams make up the contract:
//
//   - deliverySink is the run-level seam.  A shard worker offers each run of
//     events it pops to every sink attached to it — local subscriptions and
//     derived channels alike — so FIFO order, backpressure policy, and
//     refcount discipline are identical no matter what is consuming the
//     stream.
//   - Sink is the frame-level seam inside a Subscription.  It is where the
//     byte stream diverges: a plain subscriber gets raw transport frames, a
//     mesh link subscriber gets generation-stamped frames so the remote
//     broker can resume without duplicates.
//
// Reference discipline at the run seam: the caller's references are live
// for the duration of offerRun; a sink that retains an event past the call
// takes its own reference before returning.  This replaces the older
// add-then-revert pattern and is what lets one contract cover sinks that
// retain (subscription rings, shard rings), sinks that consume on the spot
// (a caught-up subscription's direct drain) and sinks that only inspect
// (derived-channel filters that reject).
type deliverySink interface {
	// offerRun hands the sink a run of events in ring order, all published
	// after the sink attached.  What the sink does with each — deliver,
	// queue, drop under its policy, filter out, refuse because it is
	// closed — is its own business and costs the caller nothing.
	offerRun(evs []*event)
	// attachGen is the channel publish generation the sink attached at;
	// events with gen at or before it are never offered (a mid-stream
	// joiner sees only events published after it attached).
	attachGen() uint64
}

// Sink consumes one subscription's ordered frame stream.  WriteFormat
// receives complete format-announcement frames (in-band channels only, each
// exactly once, always before the first data frame that needs it);
// WriteEvents receives a run of one or more complete data frames: frames[i]
// carries publish generation gens[i], in delivery order, head is the channel
// head at delivery time, and an implementation may coalesce the whole run
// into one vectored write.  The gens and frames slices are only valid
// during the call, and the frame bytes are shared refcounted buffers that
// must never be modified or retained past it.  A Sink that also implements
// io.Closer is closed when the subscription aborts, which is how a stuck
// consumer is detached without blocking shutdown.
//
// All calls come from one goroutine at a time, but not always the same one:
// a Block-policy subscription attached with SubscribeSink or
// SubscribeVersionSink is called straight from the channel's shard worker
// while it is caught up, and from its own writer goroutine while it has
// events queued.  The shard worker is shared — the time such a sink takes is
// time the channel's other subscribers wait, which is the Block contract
// arriving at once instead of a queue length later — and it is the goroutine
// publishers block behind, so a Block sink must not publish onto the channel
// it is draining, nor close its own subscription from inside a call.
type Sink interface {
	WriteFormat(frame []byte) error
	WriteEvents(gens []uint64, head uint64, frames [][]byte) error
}

// writerSink adapts a plain io.Writer (a net.Conn, an os.File, io.Discard)
// to the Sink contract: sequencing is dropped and frames pass through
// byte-for-byte, which is the classic subscriber wire format.
//
// vec is the reusable iovec header for the batched path.  WriteBuffers
// consumes the batch through a pointer that escapes into the runtime's
// writev plumbing, so the header lives on the heap — allocated once here,
// at sink creation, instead of once per drain (which would break the
// zero-allocation fan-out gate).
type writerSink struct {
	w   io.Writer
	vec *net.Buffers
}

// newWriterSink builds the sink for a plain byte-stream subscriber.
func newWriterSink(w io.Writer) writerSink {
	return writerSink{w: w, vec: new(net.Buffers)}
}

func (ws writerSink) WriteFormat(frame []byte) error {
	_, err := ws.w.Write(frame)
	return err
}

// WriteEvents coalesces a run of data frames into one vectored write: on a
// socket, N queued events cost one writev instead of N write syscalls.
// The frames all point into refcounted event buffers, so no bytes are
// copied — the iovec array is the whole cost of the batch, and a batch of
// one is a plain Write.
func (ws writerSink) WriteEvents(_ []uint64, _ uint64, frames [][]byte) error {
	if len(frames) == 1 {
		_, err := ws.w.Write(frames[0])
		return err
	}
	*ws.vec = frames
	err := transport.WriteBuffers(ws.w, ws.vec)
	*ws.vec = nil // do not retain frame references past the call
	return err
}

func (ws writerSink) Close() error {
	if c, ok := ws.w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// linkSink is the mesh link subscriber's sink: format frames pass through
// unchanged, data frames are re-framed as FrameDataSeq carrying the publish
// generation and channel head, so the downstream broker can deduplicate on
// reconnect and measure its lag.
type linkSink struct {
	w io.Writer
}

func (ls *linkSink) WriteFormat(frame []byte) error {
	_, err := ls.w.Write(frame)
	return err
}

// WriteEvents re-frames a run of data frames as FrameDataSeq into one
// pooled buffer and hands it to the writer as a single contiguous write —
// the link keeps its sequencing prefix per event, and the batch still
// costs one syscall.
func (ls *linkSink) WriteEvents(gens []uint64, head uint64, frames [][]byte) error {
	buf := pbio.GetBuffer()
	b := buf.B[:0]
	for i, frame := range frames {
		b = transport.AppendSeqFrame(b, gens[i], head, frame[transport.FrameHeaderSize:])
	}
	buf.B = b
	_, err := ls.w.Write(buf.B)
	buf.Release()
	return err
}

func (ls *linkSink) Close() error {
	if c, ok := ls.w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// gatedSink holds the subscription's first frame back until ready closes.
// The broker daemon uses it to order its "OK subscribed" response line
// before any frame bytes: the subscription (and its writer goroutine) can
// be created first — so the response can carry the exact attach generation —
// without the writer racing the response onto the wire.  The inner sink is
// a named field, not embedded, so a method added to Sink cannot reach the
// wire ungated by promotion: gatedSink stops compiling instead.
type gatedSink struct {
	sink  Sink
	ready <-chan struct{}
}

func (g gatedSink) WriteFormat(frame []byte) error {
	<-g.ready
	return g.sink.WriteFormat(frame)
}

func (g gatedSink) WriteEvents(gens []uint64, head uint64, frames [][]byte) error {
	<-g.ready
	return g.sink.WriteEvents(gens, head, frames)
}

func (g gatedSink) Close() error {
	if c, ok := g.sink.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
