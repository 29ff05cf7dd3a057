package echan

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/registry"
	"github.com/open-metadata/xmit/internal/transport"
)

// View negotiation: a subscriber pins one version of the channel's format
// lineage at SUB time and keeps decoding it while publishers evolve the
// format under it.  The broker does the work where every other subscriber's
// frame is chosen — in Subscription.deliverBatch — so a pinned subscriber is
// an ordinary subscriber whose frames come from its view:
//
//   - Announcement replay serves the negotiated version: upstream format
//     frames (which describe the head and every historical version) are
//     skipped, and the pinned version's announcement is written exactly
//     once, before the first data frame.
//   - Events already in the pinned format, opaque payloads and formats
//     outside the lineage (decided from the event's own format, not its
//     bytes) pass through sharing the publisher's buffer: the pin is a
//     promise about the lineage, not a filter.
//   - Any other lineage version goes through a compiled wire-to-wire plan
//     (pbio.Projection: copy runs, width/sign/byte-order conversions, the
//     variable section re-based), compiled once per source format and run
//     once per (event, pinned version): the projected frame is memoised on
//     the refcounted event, so every subscriber pinned to that version —
//     live, replayed from retention, on a derived channel, behind a mesh
//     proxy — shares one frame exactly as head subscribers share the
//     original.  It is released with the event, which means a retained
//     event keeps its projected frames: retention holds at most
//     retain x (pinned versions in use) of them.
//
// registry.Project over dynamic records is the reference the plans are
// tested against; it is not on this path.
type view struct {
	ch       *Channel
	lineage  *registry.Lineage
	pinned   registry.Version
	annFrame []byte // prebuilt announcement frame for the pinned format

	// plans maps an event's format to its projection onto the pinned
	// version; a nil plan means pass through.  Formats are keyed by pointer
	// for the reason Channel.announced is: an event carries the publisher's
	// registered format, which is pointer-stable and immutable, so the
	// pointer names it without asking the format for its ID.  Readers load
	// the map lock-free; mu serialises the copy-on-write inserts.
	mu    sync.Mutex
	plans atomic.Pointer[map[*meta.Format]*pbio.Projection]
}

// viewFor returns the channel's view of a pinned version, creating it on
// the first subscription pinned there.
func (ch *Channel) viewFor(l *registry.Lineage, pinned registry.Version) *view {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if v := ch.views[pinned.ID]; v != nil {
		return v
	}
	v := &view{
		ch:       ch,
		lineage:  l,
		pinned:   pinned,
		annFrame: transport.AppendFrame(nil, transport.FrameFormat, pinned.Format.Canonical()),
	}
	v.plans.Store(&map[*meta.Format]*pbio.Projection{})
	if ch.views == nil {
		ch.views = map[meta.FormatID]*view{}
	}
	ch.views[pinned.ID] = v
	return v
}

// plan returns the projection for events of format f (nil: pass through),
// compiling it on first sight.  A step the record path would refuse per
// event — a kind-family crossing under PolicyNone — fails here instead,
// naming the field, and detaches the subscriber as it always did.
func (v *view) plan(f *meta.Format) (*pbio.Projection, error) {
	if p, ok := (*v.plans.Load())[f]; ok {
		return p, nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := *v.plans.Load()
	if p, ok := old[f]; ok {
		return p, nil
	}
	var p *pbio.Projection
	if id := f.ID(); id != v.pinned.ID {
		if src, ok := v.lineage.ResolveID(id); ok {
			var err error
			if p, err = pbio.CompileProjection(src.Format, v.pinned.Format); err != nil {
				return nil, fmt.Errorf("echan: view v%d: projecting v%d: %w", v.pinned.Version, src.Version, err)
			}
		}
	}
	next := make(map[*meta.Format]*pbio.Projection, len(old)+1)
	for k, p := range old {
		next[k] = p
	}
	next[f] = p
	v.plans.Store(&next)
	return p, nil
}

// frame returns the data frame a subscriber of the view receives for ev:
// the event's own frame when it passes through, otherwise the projected
// frame memoised on the event.
func (v *view) frame(ev *event) ([]byte, error) {
	if ev.f == nil || ev.f == v.pinned.Format {
		return ev.buf.B, nil
	}
	p, err := v.plan(ev.f)
	if p == nil || err != nil {
		return ev.buf.B, err
	}
	return ev.projected(v, p)
}

// projectedFrame is one memoised projection of an event: the complete data
// frame under the format with the given ID.
type projectedFrame struct {
	id  meta.FormatID
	buf *pbio.Buffer
}

// projected returns ev's frame under v's pinned version, running the plan
// the first time any subscriber asks and sharing the result afterwards.
// The slot is keyed by format ID, so a derived channel's subscribers share
// the frame their parent's subscribers projected (or the other way round).
func (ev *event) projected(v *view, p *pbio.Projection) ([]byte, error) {
	const hdr = transport.FrameHeaderSize + pbio.HeaderSize
	if len(ev.buf.B) < hdr {
		return ev.buf.B, nil // no PBIO header: not a lineage message after all
	}
	ev.viewMu.Lock()
	defer ev.viewMu.Unlock()
	for i := range ev.views {
		if ev.views[i].id == v.pinned.ID {
			return ev.views[i].buf.B, nil
		}
	}
	buf := pbio.GetBuffer()
	b := append(buf.B[:0], make([]byte, transport.FrameHeaderSize)...)
	b, err := p.Append(pbio.AppendHeader(b, v.pinned.ID), ev.buf.B[hdr:])
	if err == nil && len(b)-transport.FrameHeaderSize+1 > maxEventFrame {
		err = fmt.Errorf("%d-byte projected event over the %d-byte cap: %w",
			len(b)-transport.FrameHeaderSize, maxEventFrame, transport.ErrFrameTooLarge)
	}
	if err != nil {
		buf.Release()
		return nil, fmt.Errorf("echan: view v%d: %w", v.pinned.Version, err)
	}
	buf.B = b
	transport.PutFrameHeader(buf.B, transport.FrameData)
	ev.views = append(ev.views, projectedFrame{id: v.pinned.ID, buf: buf})
	v.ch.metrics.viewProjected.Inc()
	return buf.B, nil
}

// ResolveView resolves a pinned lineage version for this channel: version
// n, or the lineage head for n == 0.  It fails with ErrNoSchemaRegistry
// when the broker has no registry, registry.ErrUnknownLineage before the
// first publish, or registry.ErrUnknownVersion for a version the lineage
// has not reached.
func (ch *Channel) ResolveView(n int) (*registry.Lineage, registry.Version, error) {
	sr := ch.broker.schemaReg
	if sr == nil {
		return nil, registry.Version{}, ErrNoSchemaRegistry
	}
	l, err := sr.Lineage(ch.lineageName())
	if err != nil {
		return nil, registry.Version{}, err
	}
	if n == 0 {
		head, ok := l.Head()
		if !ok {
			return nil, registry.Version{}, fmt.Errorf("echan: lineage %q is empty", ch.lineageName())
		}
		return l, head, nil
	}
	ver, err := l.Resolve(n)
	if err != nil {
		return nil, registry.Version{}, err
	}
	return l, ver, nil
}

// SubscribeVersion attaches w pinned to lineage version n (see Subscribe
// for the delivery semantics): announcement replay serves version n, data
// frames encoded under any other lineage version are field-projected onto
// it, and w keeps decoding version n no matter how far the publishers have
// evolved the format.  n == 0 pins the current head (a snapshot: unlike a
// plain Subscribe, later evolutions are projected back down to it).
func (ch *Channel) SubscribeVersion(w io.Writer, policy Policy, n int, opts ...SubOption) (*Subscription, error) {
	return ch.SubscribeVersionSink(newWriterSink(w), policy, n, append(opts, queuedOnly)...)
}

// SubscribeVersionSink is SubscribeVersion at the Sink seam.
func (ch *Channel) SubscribeVersionSink(snk Sink, policy Policy, n int, opts ...SubOption) (*Subscription, error) {
	l, ver, err := ch.ResolveView(n)
	if err != nil {
		return nil, err
	}
	return ch.subscribePinned(snk, policy, l, ver, opts...)
}

// subscribePinned attaches snk through the channel's view of an already-
// resolved lineage version (the server resolves first so it can echo the
// version).
func (ch *Channel) subscribePinned(snk Sink, policy Policy, l *registry.Lineage, ver registry.Version, opts ...SubOption) (*Subscription, error) {
	v := ch.viewFor(l, ver)
	return ch.SubscribeSink(snk, policy, append(opts, func(s *Subscription) { s.view = v })...)
}
