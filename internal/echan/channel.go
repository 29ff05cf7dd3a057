package echan

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/transport"
)

// announcement pairs a format with its prebuilt transport format frame, so
// subscriber writers replay announcements with a single Write and no
// re-serialisation.
type announcement struct {
	f     *meta.Format
	frame []byte
}

// formatTable is the ordered list of formats announced on a channel, shared
// between a parent channel and every channel derived from it.  Readers load
// it lock-free; the single appender (the parent channel, under its mutex)
// publishes copies.
type formatTable struct {
	p atomic.Pointer[[]announcement]
}

func newFormatTable() *formatTable {
	t := &formatTable{}
	empty := []announcement{}
	t.p.Store(&empty)
	return t
}

func (t *formatTable) load() []announcement { return *t.p.Load() }

// append publishes a copy with a appended and returns the new length.
// Callers hold the owning channel's mutex.
func (t *formatTable) append(a announcement) int {
	old := *t.p.Load()
	next := make([]announcement, len(old)+1)
	copy(next, old)
	next[len(old)] = a
	t.p.Store(&next)
	return len(next)
}

// event is one published message: a pooled buffer holding a complete
// transport data frame, reference-counted by the number of subscriber
// queues, the fan-out ring, and retention slots it sits in (plus the publisher
// while fanning out).  fmtIdx snapshots the format table length at publish
// time, so each subscriber's writer can emit exactly the announcements this
// event depends on before its data frame — announcements themselves are
// never queued, which keeps them safe from the drop policies.  f is the
// event's own format (nil for opaque payloads), carried so derived-channel
// sinks can decode for filtering off the publisher's goroutine.  gen is the
// channel's publish sequence number; the fan-out worker uses it to skip
// subscribers that attached after the event was published, and mesh links
// use it to deduplicate replays after a reconnect.  views memoises the
// event's frame under each pinned version a subscriber has asked for (see
// view.go): filled lazily under viewMu, shared by every holder of the
// event, and released with it.
type event struct {
	buf    *pbio.Buffer
	f      *meta.Format
	fmtIdx int
	gen    uint64
	start  time.Time
	refs   atomic.Int32

	viewMu sync.Mutex
	views  []projectedFrame
}

var eventPool = sync.Pool{New: func() any { return new(event) }}

// release drops one reference; the last reference returns the frame buffer,
// any projected frames, and the event itself to their pools.  The views
// slice keeps its capacity across reuse, so steady-state projection
// allocates nothing.
func (ev *event) release() {
	if ev.refs.Add(-1) == 0 {
		ev.buf.Release()
		ev.buf = nil
		ev.f = nil
		for i := range ev.views {
			ev.views[i].buf.Release()
			ev.views[i].buf = nil
		}
		ev.views = ev.views[:0]
		eventPool.Put(ev)
	}
}

// channelMetrics are a channel's obs instruments, created once at channel
// construction so the publish path only touches atomics.
type channelMetrics struct {
	published     *obs.Counter
	delivered     *obs.Counter
	droppedOldest *obs.Counter
	droppedNewest *obs.Counter
	blockWaits    *obs.Counter
	subscribers   *obs.Gauge
	depth         *obs.Gauge
	shardDepth    *obs.Gauge
	sinkWrites    *obs.Counter
	viewProjected *obs.Counter
	fanout        *obs.Histogram
}

func (m *channelMetrics) init(reg *obs.Registry, name string) {
	p := "echan_" + metricName(name) + "_"
	m.published = reg.Counter(p + "published_total")
	m.delivered = reg.Counter(p + "delivered_total")
	m.droppedOldest = reg.Counter(p + "dropped_oldest_total")
	m.droppedNewest = reg.Counter(p + "dropped_newest_total")
	m.blockWaits = reg.Counter(p + "block_waits_total")
	m.subscribers = reg.Gauge(p + "subscribers")
	m.depth = reg.Gauge(p + "depth")
	m.shardDepth = reg.Gauge(p + "shard_depth")
	// Sink write calls (format + data, single or vectored).  Against
	// delivered_total this is the syscalls-per-event figure the vectored
	// drain exists to shrink: 1.0 write/event unbatched, under it batched.
	m.sinkWrites = reg.Counter(p + "sink_writes_total")
	// Projections executed for version-pinned subscribers: one per event
	// per distinct pinned version in use, however many subscribers share
	// the projected frame (pass-through frames — pin == event version —
	// don't count).
	m.viewProjected = reg.Counter(p + "view_projected_total")
	m.fanout = reg.Histogram(p + "fanout_latency_ns")
}

// Channel is a named event stream.  Publishers encode once; one worker
// goroutine fans each event out to the whole subscriber set, and every
// subscriber receives the same pooled frame.  All methods are safe for
// concurrent use.
type Channel struct {
	broker  *Broker
	name    string
	qlen    int
	retainN int
	oob     bool
	parent  *Channel
	filter  *Filter
	formats *formatTable
	gen     *atomic.Uint64 // publish sequence; shared with derived channels

	mu        sync.Mutex // serialises announce, subscriber/children changes
	announced atomic.Pointer[map[*meta.Format]int]
	shard     *shard
	children  atomic.Pointer[[]*Channel]
	closed    atomic.Bool
	views     map[meta.FormatID]*view // pinned versions in use, by format ID; under mu

	// adopted marks a mesh proxy channel: its events arrive over an
	// inter-broker link from the channel's home broker, which already ran
	// the schema-registry policy check.  Formats announced here are adopted
	// into the local registry verbatim (home ordering, no re-check), so a
	// policy decision is made exactly once mesh-wide — at the home.
	adopted atomic.Bool

	// feed is the channel's attachment to its parent when derived: the
	// delivery sink registered on the parent's fan-out.  Set at Derive.
	feed *derivedSink

	// Retention: the retainN most recent events, each holding one
	// reference, so a resuming subscriber (SubAfter — chiefly a mesh link
	// reconnecting) can be replayed the events it missed.  retMu also
	// serialises publishes when retention is on, making gen assignment,
	// retention append, and fan-out enqueue one atomic step — the log-append
	// ordering resume correctness depends on.
	retMu    sync.Mutex
	ret      []*event
	retHead  int
	retCount int

	metrics channelMetrics
}

// ChannelOption configures a channel at creation.
type ChannelOption func(*Channel)

// WithQueue sets the per-subscriber queue length for subscriptions to this
// channel (default: the broker's default), and the depth of the channel's
// fan-out ring: the publisher→worker hand-off buffer, whose filling is how
// Block-policy backpressure reaches the publisher.
func WithQueue(n int) ChannelOption {
	return func(ch *Channel) {
		if n > 0 {
			ch.qlen = n
		}
	}
}

// WithRetain keeps the n most recent events published on the channel, so a
// subscriber that detached (a mesh link whose connection dropped, chiefly)
// can resume with SubAfter and be replayed exactly the events it missed.
// Retention holds one reference per retained event — bounded memory of n
// frames — and serialises publishes on one mutex, so it is off by default.
func WithRetain(n int) ChannelOption {
	return func(ch *Channel) {
		if n > 0 {
			ch.retainN = n
		}
	}
}

// WithOutOfBand makes the channel distribute metadata out-of-band: no format
// announcement frames are written to subscribers, who must resolve format
// IDs through their own resolver (the fmtserver/discovery path).  Pair it
// with WithFormatRegistrar on the broker so published formats reach the
// format server.
func WithOutOfBand() ChannelOption {
	return func(ch *Channel) { ch.oob = true }
}

func newChannel(b *Broker, name string, opts ...ChannelOption) *Channel {
	ch := &Channel{
		broker:  b,
		name:    name,
		qlen:    b.defaultQueue,
		retainN: b.defaultRetain,
		formats: newFormatTable(),
		gen:     new(atomic.Uint64),
	}
	for _, o := range opts {
		o(ch)
	}
	if ch.retainN > 0 {
		ch.ret = make([]*event, ch.retainN)
	}
	ch.announced.Store(&map[*meta.Format]int{})
	emptyKids := []*Channel{}
	ch.children.Store(&emptyKids)
	ch.metrics.init(b.reg, name)
	ch.shard = newShard(ch, ch.qlen)
	return ch
}

// Name returns the channel name.
func (ch *Channel) Name() string { return ch.name }

// OutOfBand reports whether the channel distributes metadata out-of-band.
func (ch *Channel) OutOfBand() bool { return ch.oob }

// Derived reports whether the channel is derived from a parent.
func (ch *Channel) Derived() bool { return ch.parent != nil }

// lineageName is the schema-registry lineage the channel's formats belong
// to.  A derived channel shares its parent's stream (and format table), so
// it shares the parent's lineage too.
func (ch *Channel) lineageName() string {
	if ch.parent != nil {
		return ch.parent.name
	}
	return ch.name
}

// attachChild registers c as a channel derived from ch and attaches its feed
// to ch's fan-out, or fails with ErrChannelClosed once ch is closed: a
// closed channel's worker has exited, so a child attached to it would never
// deliver anything.  Callers hold b.mu; children mutate under ch.mu.
func (ch *Channel) attachChild(c *Channel, feed *derivedSink) error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.closed.Load() {
		return ErrChannelClosed
	}
	old := *ch.children.Load()
	next := make([]*Channel, len(old)+1)
	copy(next, old)
	next[len(old)] = c
	ch.children.Store(&next)
	c.feed = feed
	ch.shard.addSink(feed)
	return nil
}

// ensureAnnounced makes f part of the channel's format table, registering it
// with the broker's registrar on first sight, and returns the table length
// to use as the event's format index.  The fast path is one lock-free map
// read; formats are keyed by pointer because the publisher hands in the
// same registered (pointer-stable, immutable) format on every publish, and
// a pointer key needs nothing from the format itself.
func (ch *Channel) ensureAnnounced(f *meta.Format) (int, error) {
	if idx, ok := (*ch.announced.Load())[f]; ok {
		return idx, nil
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if idx, ok := (*ch.announced.Load())[f]; ok {
		return idx, nil
	}
	// Schema-registry enforcement comes first: a format that violates the
	// channel lineage's compatibility policy never reaches the registrar,
	// the announcement table, or a subscriber.  The publish fails with the
	// registry's typed CompatError.  A mesh proxy channel adopts instead of
	// registering — the home broker is the policy authority, and its
	// admission (carried here by the link) must not be re-litigated under
	// the local policy.
	if sr := ch.broker.schemaReg; sr != nil {
		if ch.adopted.Load() {
			if _, err := sr.Adopt(ch.lineageName(), f, "link"); err != nil {
				return 0, err
			}
		} else if _, err := sr.Register(ch.lineageName(), f, "publish"); err != nil {
			return 0, err
		}
	}
	if reg := ch.broker.registrar; reg != nil {
		if err := reg(f); err != nil {
			return 0, fmt.Errorf("echan: registering format %q: %w", f.Name, err)
		}
	}
	frame := transport.AppendFrame(nil, transport.FrameFormat, f.Canonical())
	idx := ch.formats.append(announcement{f: f, frame: frame})
	old := *ch.announced.Load()
	next := make(map[*meta.Format]int, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[f] = idx
	ch.announced.Store(&next)
	return idx, nil
}

// Publish encodes v with the binding and fans the event out to every
// subscriber (and matching derived channels).  The message is encoded once
// into a pooled transport frame; in steady state the call allocates nothing.
func (ch *Channel) Publish(b *pbio.Binding, v any) error {
	if ch.parent != nil {
		return ErrDerivedChannel
	}
	if ch.closed.Load() {
		return ErrChannelClosed
	}
	buf := pbio.GetBuffer()
	dst := append(buf.B[:0], make([]byte, transport.FrameHeaderSize)...)
	dst, err := b.AppendEncode(dst, v)
	if err != nil {
		buf.Release()
		return err
	}
	buf.B = dst
	return ch.publishFrame(b.Format(), buf)
}

// PublishMessage fans out a complete pre-encoded PBIO message (header and
// body) described by f — the path the broker daemon takes for frames arriving
// from publisher connections.  The message is copied into a pooled frame, so
// msg may be reused immediately.
func (ch *Channel) PublishMessage(f *meta.Format, msg []byte) error {
	return ch.PublishMessageAt(f, msg, 0)
}

// PublishMessageAt is PublishMessage with an externally-assigned publish
// generation: at == 0 lets the channel number the event itself (the normal
// path); at > 0 stamps the event with the given generation and advances the
// channel head to at least that value.  Mesh links use it to republish a
// home broker's stream under the home's own generation numbers, so a
// subscriber's "after=<gen>" position means the same thing on every broker
// it might reattach through.
func (ch *Channel) PublishMessageAt(f *meta.Format, msg []byte, at uint64) error {
	if ch.parent != nil {
		return ErrDerivedChannel
	}
	if ch.closed.Load() {
		return ErrChannelClosed
	}
	buf := pbio.GetBuffer()
	dst := append(buf.B[:0], make([]byte, transport.FrameHeaderSize)...)
	buf.B = append(dst, msg...)
	return ch.publishFrameAt(f, buf, at)
}

// PublishOpaque fans out an opaque payload — self-describing encodings (XML,
// chiefly) that need no format announcements and cannot feed derived-channel
// filters.  The payload is copied into a pooled frame.
func (ch *Channel) PublishOpaque(payload []byte) error {
	if ch.parent != nil {
		return ErrDerivedChannel
	}
	if ch.closed.Load() {
		return ErrChannelClosed
	}
	buf := pbio.GetBuffer()
	dst := append(buf.B[:0], make([]byte, transport.FrameHeaderSize)...)
	buf.B = append(dst, payload...)
	return ch.publishFrame(nil, buf)
}

// publishFrame takes ownership of buf (five reserved header bytes followed
// by the payload), stamps the frame header, and fans the event out.  f is
// nil for opaque payloads.
func (ch *Channel) publishFrame(f *meta.Format, buf *pbio.Buffer) error {
	return ch.publishFrameAt(f, buf, 0)
}

// setGen assigns the event's publish generation: the channel's own next
// number when at is zero, or the caller-supplied one, advancing the channel
// head monotonically so Stats().Head and attach positions stay coherent.
// With retention on, callers hold retMu and the CAS cannot contend.
func (ch *Channel) setGen(ev *event, at uint64) {
	if at == 0 {
		ev.gen = ch.gen.Add(1)
		return
	}
	ev.gen = at
	for {
		cur := ch.gen.Load()
		if at <= cur || ch.gen.CompareAndSwap(cur, at) {
			return
		}
	}
}

func (ch *Channel) publishFrameAt(f *meta.Format, buf *pbio.Buffer, at uint64) error {
	payload := len(buf.B) - transport.FrameHeaderSize
	if payload+1 > maxEventFrame {
		buf.Release()
		return fmt.Errorf("echan: %d-byte event over the %d-byte cap: %w",
			payload, maxEventFrame, transport.ErrFrameTooLarge)
	}
	transport.PutFrameHeader(buf.B, transport.FrameData)

	var fmtIdx int
	if f != nil {
		var err error
		if fmtIdx, err = ch.ensureAnnounced(f); err != nil {
			buf.Release()
			return err
		}
	}

	ev := eventPool.Get().(*event)
	ev.buf = buf
	ev.f = f
	ev.fmtIdx = fmtIdx
	ev.start = time.Now()
	ev.refs.Store(1) // the publisher's reference, held across fan-out

	if ch.retainN > 0 {
		// With retention on, generation assignment, the retention append,
		// and the fan-out hand-off form one critical section: the retained
		// ring then holds a gen-contiguous suffix of the stream, which is
		// what lets SubAfter decide "replayable or gap" by arithmetic.  (A
		// proxy channel's externally-stamped gens can leave gaps after a
		// torn link; the arithmetic then over-counts the missed span and
		// rejects conservatively — a counted loss, never a duplicate.)
		ch.retMu.Lock()
		ch.setGen(ev, at)
		ch.retain(ev)
		ch.enqueue(ev)
		ch.retMu.Unlock()
	} else {
		ch.setGen(ev, at)
		ch.enqueue(ev)
	}
	ch.metrics.published.Inc()

	ev.release()
	return nil
}

// retain appends ev to the retention ring, evicting the oldest retained
// event when full.  Callers hold retMu.
func (ch *Channel) retain(ev *event) {
	if ch.retCount == ch.retainN {
		old := ch.ret[ch.retHead]
		ch.ret[ch.retHead] = nil
		ch.retHead = (ch.retHead + 1) % ch.retainN
		ch.retCount--
		old.release()
	}
	ev.refs.Add(1)
	ch.ret[(ch.retHead+ch.retCount)%ch.retainN] = ev
	ch.retCount++
}

// dropRetained releases every retained event (channel close).
func (ch *Channel) dropRetained() {
	ch.retMu.Lock()
	for ch.retCount > 0 {
		ev := ch.ret[ch.retHead]
		ch.ret[ch.retHead] = nil
		ch.retHead = (ch.retHead + 1) % ch.retainN
		ch.retCount--
		ev.release()
	}
	ch.retMu.Unlock()
}

// enqueue hands the event to the fan-out worker, which takes its own
// reference on acceptance.  A channel with no sinks attached skips the ring:
// the event costs one atomic pointer load.
func (ch *Channel) enqueue(ev *event) {
	if len(*ch.shard.sinks.Load()) > 0 {
		ch.shard.enqueue(ev)
	}
}

// SubOption configures a subscription.
type SubOption func(*Subscription)

// SubQueue overrides the channel's queue length for one subscription.
func SubQueue(n int) SubOption {
	return func(s *Subscription) {
		if n > 0 {
			s.ring = make([]*event, n)
		}
	}
}

// SubAfter resumes a subscription from a known position: events with
// publish generation at or before gen are skipped, events after it are
// replayed from the channel's retention ring (see WithRetain) before live
// delivery begins.  If retention no longer reaches back to gen the
// subscribe fails with ErrResumeGap — the caller must re-attach fresh and
// treat the gap as loss.  This is the reconnect path of inter-broker mesh
// links.
func SubAfter(gen uint64) SubOption {
	return func(s *Subscription) {
		s.resume = true
		s.resumeAfter = gen
	}
}

// queuedOnly marks a subscription whose sink the broker itself wrapped
// around an io.Writer (Subscribe, SubscribeVersion, the daemon's socket
// subscribers): a write there can park in the kernel for as long as the
// peer likes, so it never runs on the fan-out worker — every event goes
// through the queue to the subscription's own writer goroutine.
func queuedOnly(s *Subscription) { s.queued = true }

// Subscribe attaches an io.Writer to the channel under the given
// backpressure policy; frames reach w byte-for-byte (the classic subscriber
// wire).  w's Write must be safe for use from one goroutine (a net.Conn or
// os.File is fine).  See SubscribeSink for the delivery semantics; writes
// to w always come from the subscription's own writer goroutine.
func (ch *Channel) Subscribe(w io.Writer, policy Policy, opts ...SubOption) (*Subscription, error) {
	return ch.SubscribeSink(newWriterSink(w), policy, append(opts, queuedOnly)...)
}

// SubscribeSink attaches a Sink to the channel under the given backpressure
// policy.  The sink receives the format announcements it hasn't seen (for
// in-band channels), each followed by data frames — so a subscriber joining
// mid-stream always receives the formats its first event needs before that
// event's data frame.  Who calls the sink follows from the policy (see
// Subscription.offerRun): a Block subscriber that is caught up is called
// straight from the channel's fan-out worker, one hand-off after the
// publish; one that has fallen behind, and every Drop subscriber, is
// drained from its queue by a dedicated writer goroutine.
func (ch *Channel) SubscribeSink(snk Sink, policy Policy, opts ...SubOption) (*Subscription, error) {
	if ch.closed.Load() {
		return nil, ErrChannelClosed
	}
	s := &Subscription{
		ch:     ch,
		sink:   snk,
		policy: policy,
		ring:   make([]*event, ch.qlen),
		done:   make(chan struct{}),
	}
	s.cond.L = &s.mu
	for _, o := range opts {
		o(s)
	}
	// Delivery scratch, sized once to the queue length so the batched drain
	// — everything ready, as one vectored write — never allocates: a
	// delivery is capped at cap(s.batch) events even if the ring is later
	// grown for a resume replay.
	s.batch = make([]*event, 0, len(s.ring))
	s.gens = make([]uint64, 0, len(s.ring))
	s.frames = make([][]byte, 0, len(s.ring))
	ch.mu.Lock()
	if ch.closed.Load() {
		ch.mu.Unlock()
		return nil, ErrChannelClosed
	}
	if s.resume {
		if err := ch.attachResumed(s); err != nil {
			ch.mu.Unlock()
			return nil, err
		}
	} else {
		s.afterGen = ch.gen.Load()
		ch.shard.addSink(s)
		go s.run()
	}
	ch.mu.Unlock()
	ch.metrics.subscribers.Add(1)
	return s, nil
}

// attachResumed splices a resuming subscription into the stream without a
// seam: under retMu (so no publish can interleave) it checks that retention
// reaches back to the resume point, replays the missed suffix into the
// subscription's own queue, and attaches the subscription at the current
// head.  The queue is grown to cover the whole missed span first, so the
// replay offers can never block — the writer goroutine draining them may
// itself be stalled behind a slow or gated sink, and attachResumed holds
// locks a blocked offer would deadlock against.  The replay is always
// queued, never delivered here: the fan-out worker finds the queue non-empty
// and queues the live events behind it, so replayed events precede live
// ones whichever goroutine ends up running the sink.  Callers hold ch.mu.
func (ch *Channel) attachResumed(s *Subscription) error {
	ch.retMu.Lock()
	head := ch.gen.Load()
	if s.resumeAfter > head {
		ch.retMu.Unlock()
		return fmt.Errorf("echan: resume after gen %d beyond head %d: %w",
			s.resumeAfter, head, ErrResumeGap)
	}
	// Retention holds a gen-contiguous suffix ending at head, so the resume
	// point is covered exactly when the missed span fits what is retained.
	missed := head - s.resumeAfter
	if missed > uint64(ch.retCount) {
		ch.retMu.Unlock()
		return fmt.Errorf("echan: resume after gen %d: %d events missed, %d retained: %w",
			s.resumeAfter, missed, ch.retCount, ErrResumeGap)
	}
	if missed > uint64(len(s.ring)) {
		s.ring = make([]*event, missed)
	}
	s.afterGen = head
	go s.run()
	for i := 0; i < ch.retCount; i++ {
		ev := ch.ret[(ch.retHead+i)%ch.retainN]
		if ev.gen > s.resumeAfter {
			s.offer(ev)
		}
	}
	ch.shard.addSink(s)
	ch.retMu.Unlock()
	return nil
}

// removeSink detaches snk from the channel's fan-out (idempotent),
// reporting whether it was attached.
func (ch *Channel) removeSink(snk deliverySink) bool {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.shard.removeSink(snk)
}

// removeSub detaches s from the channel's fan-out (idempotent).
func (ch *Channel) removeSub(s *Subscription) {
	if ch.removeSink(s) {
		ch.metrics.subscribers.Add(-1)
	}
}

// Sync blocks until the fan-out ring and every queue on the channel (and
// its derived channels) has drained and no delivery is in flight — a
// barrier for tests and graceful shutdown.
func (ch *Channel) Sync() {
	ch.shard.sync()
	for _, snk := range *ch.shard.sinks.Load() {
		if s, ok := snk.(*Subscription); ok {
			s.Sync()
		}
	}
	// Derived channels drain after the parent's fan-out: once shard.sync
	// returns, every offer into a child's ring has happened.
	for _, c := range *ch.children.Load() {
		c.Sync()
	}
}

// Close marks the channel closed (publishes fail with ErrChannelClosed) and
// aborts every subscription: the fan-out ring, queued events, and retained
// events are discarded and sinks that implement io.Closer are closed, so
// shutdown never waits on a stuck consumer.  Use Sync before Close for a
// drain-then-stop sequence.
func (ch *Channel) Close() error {
	if ch.closed.Swap(true) {
		return nil
	}
	// A derived channel detaches from its parent first, so no new events
	// flow in while it tears down.
	if ch.parent != nil && ch.feed != nil {
		ch.parent.removeSink(ch.feed)
	}
	for _, c := range *ch.children.Load() {
		c.Close()
	}
	// Wake the worker (and any publisher blocked on a full ring) first,
	// then abort subscriptions so a worker blocked in a Block-policy offer
	// is released, then wait for the worker to drain and exit.
	ch.shard.close()
	for _, snk := range *ch.shard.sinks.Load() {
		if s, ok := snk.(*Subscription); ok {
			s.abort()
		}
	}
	<-ch.shard.done
	if ch.retainN > 0 {
		ch.dropRetained()
	}
	return nil
}

// ChannelStats is a snapshot of a channel's counters.
type ChannelStats struct {
	Published     int64
	Delivered     int64
	DroppedOldest int64
	DroppedNewest int64
	BlockWaits    int64
	Subscribers   int64
	Depth         int64
	ShardDepth    int64  // events sitting in (or being fanned out from) the fan-out ring
	Head          uint64 // current publish generation (mesh links compare heads across brokers)
}

// Stats snapshots the channel's counters (the same values exported through
// the obs registry).
func (ch *Channel) Stats() ChannelStats {
	return ChannelStats{
		Head:          ch.gen.Load(),
		Published:     ch.metrics.published.Value(),
		Delivered:     ch.metrics.delivered.Value(),
		DroppedOldest: ch.metrics.droppedOldest.Value(),
		DroppedNewest: ch.metrics.droppedNewest.Value(),
		BlockWaits:    ch.metrics.blockWaits.Value(),
		Subscribers:   ch.metrics.subscribers.Value(),
		Depth:         ch.metrics.depth.Value(),
		ShardDepth:    ch.metrics.shardDepth.Value(),
	}
}

// Subscription is one sink's attachment to a channel.  The channel's fan-out
// worker is the only goroutine that offers it events, and it has two ways to
// deliver them: directly, on the worker, when it is a caught-up in-process
// Block subscriber, or through a bounded ring of pending events drained by
// its own writer goroutine (see offerRun).
//
// The inflight token serialises the two.  Whoever holds it — the writer
// between pop and write-complete, the fan-out worker for the length of a
// direct delivery — owns the sink and the delivery state below (sent,
// viewAnnounced, the gens/frames scratch); it is taken and returned under
// mu, which is the hand-off fence between the two goroutines.
type Subscription struct {
	ch       *Channel
	sink     Sink
	policy   Policy
	queued   bool   // broker-wrapped io.Writer sink: never run it on the fan-out worker
	afterGen uint64 // publish generation at attach; earlier events are skipped

	resume      bool   // SubAfter given: replay retained events first
	resumeAfter uint64 // last generation the resuming consumer already has

	mu       sync.Mutex
	cond     sync.Cond
	ring     []*event
	head     int
	count    int
	inflight bool // a delivery is in progress (writer or fan-out worker)
	syncers  int  // goroutines parked in Sync
	closed   bool
	failed   error

	sent int // formats already written; inflight holder only
	done chan struct{}

	// view is set for a version-pinned subscription (see view.go): data
	// frames come from it, upstream announcements are skipped, and its one
	// announcement goes out before the first data frame (viewAnnounced;
	// inflight holder only).
	view          *view
	viewAnnounced bool

	// Delivery scratch, preallocated at subscribe so steady-state delivery
	// stays allocation-free: batch is the writer's pop buffer, gens and
	// frames belong to the inflight holder.
	batch  []*event
	gens   []uint64
	frames [][]byte
}

// Policy returns the subscription's backpressure policy.
func (s *Subscription) Policy() Policy { return s.policy }

// AttachGen returns the channel publish generation the subscription
// attached at: the first event it can receive is gen AttachGen()+1 (for a
// resumed subscription, replayed events land earlier than that but after
// its SubAfter position).
func (s *Subscription) AttachGen() uint64 { return s.afterGen }

// Err returns the write error that terminated the subscription, if any.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// attachGen is the deliverySink seam: events at or before it are skipped.
func (s *Subscription) attachGen() uint64 { return s.afterGen }

// offerRun is the deliverySink seam: the fan-out worker hands over a run of
// events.  A Block subscriber whose sink is the embedder's own, with nothing
// queued and no delivery in flight, is caught up, and the worker delivers
// the run into the sink itself — no queue, no second goroutine to wake.
// That changes when a slow Block sink is felt, not whether: it holds the
// worker at once instead of a queue length later.  Everything else is
// enqueued for the writer goroutine: Drop subscribers always (their
// contract is that a stalled consumer never holds the worker), broker-
// wrapped io.Writer sinks always (see queuedOnly), and a Block subscriber
// for as long as it is behind — the worker only goes direct again once the
// writer has drained the queue and returned the token, which is what keeps
// delivery FIFO across the transitions.
func (s *Subscription) offerRun(evs []*event) {
	if s.policy == Block && !s.queued && s.deliverDirect(evs) {
		return
	}
	for _, ev := range evs {
		s.offer(ev)
	}
}

// deliverDirect delivers a run on the calling (fan-out worker) goroutine if
// the subscription is caught up, reporting whether it took the run.  The
// events are only borrowed: the worker's references outlive the call and
// nothing is queued, so no reference is taken and depth does not move.
func (s *Subscription) deliverDirect(evs []*event) bool {
	s.mu.Lock()
	if s.count > 0 || s.inflight || s.closed {
		s.mu.Unlock()
		return false
	}
	s.inflight = true
	s.mu.Unlock()

	var err error
	for len(evs) > 0 && err == nil {
		n := min(len(evs), cap(s.batch))
		err = s.deliverBatch(evs[:n])
		evs = evs[n:]
	}
	s.endDelivery(err)
	return true
}

// endDelivery returns the inflight token, failing the subscription if the
// delivery did.  The detach that follows a failure is the writer
// goroutine's job on either path (see run): the fan-out worker must not take
// ch.mu, which a resuming subscriber holds while waiting on a publisher
// that is itself waiting on this worker.  Waiters are woken only when there
// can be any — the parked writer of a caught-up subscriber has nothing to
// do until the subscription closes, and waking it per delivery is the
// hand-off the direct path exists to avoid.
func (s *Subscription) endDelivery(err error) {
	s.mu.Lock()
	s.inflight = false
	if err != nil {
		s.failed = err
		s.closed = true
	}
	if s.closed || s.syncers > 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// offer enqueues one event under the subscription's policy; a closed
// subscription, or a full queue under a drop policy, refuses it.  Per the
// deliverySink contract, the caller's reference is borrowed; acceptance
// takes the subscription's own reference.
func (s *Subscription) offer(ev *event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.count == len(s.ring) {
		switch s.policy {
		case DropNewest:
			s.ch.metrics.droppedNewest.Inc()
			return
		case DropOldest:
			old := s.ring[s.head]
			s.ring[s.head] = nil
			s.head = (s.head + 1) % len(s.ring)
			s.count--
			s.ch.metrics.depth.Add(-1)
			s.ch.metrics.droppedOldest.Inc()
			old.release()
		case Block:
			s.ch.metrics.blockWaits.Inc()
			for s.count == len(s.ring) && !s.closed {
				s.cond.Wait()
			}
			if s.closed {
				return
			}
		}
	}
	ev.refs.Add(1)
	s.ring[(s.head+s.count)%len(s.ring)] = ev
	s.count++
	s.ch.metrics.depth.Add(1)
	s.cond.Broadcast()
}

// run is the subscription's writer loop: take the inflight token, pop every
// ready event up to the write-batch cap, deliver, release the events.  A
// caught-up direct subscriber's writer just stays parked here.  The loop
// exits once the subscription is closed and drained and no delivery is in
// flight on either goroutine — so done closing means the sink is no longer
// being called — or after a delivery failed on either path, in which case
// it discards whatever remains queued and detaches the subscription.
func (s *Subscription) run() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for s.inflight || (s.count == 0 && !s.closed) {
			s.cond.Wait()
		}
		if s.failed != nil {
			s.mu.Unlock()
			s.discardQueue()
			s.ch.removeSub(s)
			return
		}
		if s.count == 0 { // closed and drained
			s.mu.Unlock()
			return
		}
		n := min(s.count, cap(s.batch))
		batch := s.batch[:0]
		for i := 0; i < n; i++ {
			batch = append(batch, s.ring[s.head])
			s.ring[s.head] = nil
			s.head = (s.head + 1) % len(s.ring)
		}
		s.count -= n
		s.inflight = true
		s.ch.metrics.depth.Add(-int64(n))
		s.cond.Broadcast()
		s.mu.Unlock()

		err := s.deliverBatch(batch)
		for i, ev := range batch {
			ev.release()
			batch[i] = nil
		}
		s.endDelivery(err)
	}
}

// deliverBatch writes a run of events to the sink; the caller holds the
// inflight token.  Format announcements interleave exactly where a
// one-event-at-a-time loop would put them: fmtIdx is non-decreasing in
// delivery order, so each announcement boundary flushes the data frames
// gathered so far, writes the announcements, and starts a new run — the
// wire bytes are identical to unbatched delivery, only the write calls are
// fewer.  A version-pinned subscription takes each event's frame from its
// view instead (the projected frame every subscriber of that version
// shares, or the event's own when it passes through) and skips the upstream
// announcements; flushRun writes the view's single announcement ahead of
// its first data frame.
func (s *Subscription) deliverBatch(evs []*event) error {
	head := s.ch.gen.Load()
	gens := s.gens[:0]
	frames := s.frames[:0]
	runStart := 0
	for i, ev := range evs {
		frame := ev.buf.B
		if s.view != nil {
			var err error
			if frame, err = s.view.frame(ev); err != nil {
				return err
			}
		} else if !s.ch.oob && s.sent < ev.fmtIdx {
			if err := s.flushRun(gens, frames, head, evs[runStart:i]); err != nil {
				return err
			}
			gens, frames = gens[:0], frames[:0]
			runStart = i
			table := s.ch.formats.load()
			for s.sent < ev.fmtIdx {
				s.ch.metrics.sinkWrites.Inc()
				if err := s.sink.WriteFormat(table[s.sent].frame); err != nil {
					return err
				}
				s.sent++
			}
		}
		gens = append(gens, ev.gen)
		frames = append(frames, frame)
	}
	return s.flushRun(gens, frames, head, evs[runStart:])
}

// flushRun writes one announcement-free run of data frames through the
// sink's WriteEvents and accounts for it: one sink write, len(evs)
// deliveries, and their publish-to-delivered latencies folded into as few
// histogram updates as their spread allows.
func (s *Subscription) flushRun(gens []uint64, frames [][]byte, head uint64, evs []*event) error {
	if len(frames) == 0 {
		return nil
	}
	if s.view != nil && !s.viewAnnounced {
		// Out-of-band channels announce nothing; their subscribers resolve
		// the pinned format through the fmtserver/discovery path.
		if !s.ch.oob {
			s.ch.metrics.sinkWrites.Inc()
			if err := s.sink.WriteFormat(s.view.annFrame); err != nil {
				return err
			}
		}
		s.viewAnnounced = true
	}
	s.ch.metrics.sinkWrites.Inc()
	if err := s.sink.WriteEvents(gens, head, frames); err != nil {
		return err
	}
	s.ch.metrics.delivered.Add(int64(len(evs)))
	now := time.Now()
	lat := s.ch.metrics.fanout.Run()
	for _, ev := range evs {
		lat.Record(now.Sub(ev.start).Nanoseconds())
	}
	lat.Flush()
	return nil
}

// discardQueue releases every queued event without writing it.
func (s *Subscription) discardQueue() {
	s.mu.Lock()
	for s.count > 0 {
		ev := s.ring[s.head]
		s.ring[s.head] = nil
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		s.ch.metrics.depth.Add(-1)
		ev.release()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Sync blocks until the subscription's queue is empty and no delivery is in
// flight on either path (or the subscription has failed).
func (s *Subscription) Sync() {
	s.mu.Lock()
	s.syncers++
	for (s.count > 0 || s.inflight) && s.failed == nil {
		s.cond.Wait()
	}
	s.syncers--
	s.mu.Unlock()
}

// abort tears the subscription down without draining: the queue is
// discarded and, if the sink is closable, it is closed to unblock any write
// in flight — on the writer goroutine or, for a direct delivery, on the
// fan-out worker.  It returns once the sink is no longer being called.  Used
// by Channel.Close so shutdown cannot hang on a consumer that stopped
// reading.
func (s *Subscription) abort() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.discardQueue()
	if c, ok := s.sink.(io.Closer); ok {
		c.Close()
	}
	<-s.done
	s.ch.removeSub(s)
}

// Close detaches the subscription: already-queued events are still written,
// then the writer exits.  It blocks until the writer is done and any direct
// delivery has returned from the sink, and returns the subscription's
// terminal write error, if any.
func (s *Subscription) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-s.done
	s.ch.removeSub(s)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}
