package echan

import (
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/transport"
)

// derivedSink feeds a derived channel from its parent's stream through the
// same deliverySink contract local subscriptions use: it attaches to the
// parent's fan-out, and the parent's worker offers it every run.  An
// accepted event — one whose decoded record matches the child's filter — is
// enqueued into the child's own fan-out ring, which takes its own reference
// (the parent's frame is shared; filtering adds a decode but no copy).
//
// Running the filter here, on the parent's worker, keeps the decode off the
// publisher's goroutine; the cost is one decode per derived channel per
// event rather than one per event, the usual price of moving work off the
// producer.  Backpressure remains transitive: a Block-policy subscriber of
// the child blocks the child's ring, which blocks this offerRun, which
// blocks the parent's worker and ultimately the publisher.
type derivedSink struct {
	child *Channel
	gen   uint64 // parent generation at attach; earlier events are skipped
}

func (d *derivedSink) attachGen() uint64 { return d.gen }

func (d *derivedSink) offerRun(evs []*event) {
	child := d.child
	if child.closed.Load() {
		return // closed children take nothing
	}
	for _, ev := range evs {
		if ev.f == nil {
			continue // opaque payloads cannot feed filters
		}
		body := ev.buf.B[transport.FrameHeaderSize+pbio.HeaderSize:]
		rec, err := child.broker.ctx.DecodeRecordBody(ev.f, body)
		if err != nil {
			continue // undecodable for filtering; the child sees nothing
		}
		if !child.filter.Match(rec) {
			continue
		}
		child.metrics.published.Inc()
		child.enqueue(ev)
	}
}
