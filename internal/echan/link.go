package echan

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/transport"
)

// Link mirrors one remote-homed channel into the local broker: a link
// subscription on the channel's home broker whose generation-stamped frames
// are re-published into the local proxy channel.  One link serves every
// local subscriber of the channel, so an event crosses the wire between two
// brokers exactly once no matter how wide the local fan-out is.
//
// The link owns reconnection: when its connection dies it redials the home
// with exponential backoff and resumes with "after=<last generation>", and
// the home replays the missed span from its retention ring.  Frames at or
// below the last re-published generation are discarded, so a replay overlap
// never duplicates an event for steady local subscribers.  A resume the
// home can no longer cover (ERR mentioning the retention gap) re-attaches
// fresh and counts the gap — loss is visible in the gaps counter, never
// silent duplication.
type Link struct {
	mesh  *Mesh
	name  string
	home  string
	local *Channel

	lastGen atomic.Uint64
	haveGen atomic.Bool
	connUp  atomic.Bool

	attached   chan struct{} // closed after the first successful attach
	attachOnce sync.Once
	attaches   atomic.Int64

	mu     sync.Mutex
	conn   net.Conn
	closed bool

	done chan struct{}

	metricNames []string
	events      *obs.Counter
	reconnects  *obs.Counter
	gaps        *obs.Counter
	lag         *obs.Gauge
	lastGenG    *obs.Gauge
	upG         *obs.Gauge
}

// LinkStats is a snapshot of one link's delivery state.
type LinkStats struct {
	Channel    string
	Home       string
	Connected  bool
	LastGen    uint64 // last generation re-published locally
	Events     int64  // events re-published locally
	Reconnects int64  // successful re-attaches after the first
	Gaps       int64  // resumes the home could no longer cover (events lost)
	Lag        int64  // home head minus last delivered generation, at last delivery
}

func newLink(m *Mesh, name, home string, local *Channel) *Link {
	l := &Link{
		mesh:     m,
		name:     name,
		home:     home,
		local:    local,
		attached: make(chan struct{}),
		done:     make(chan struct{}),
	}
	p := "echan_mesh_link_" + metricName(name) + "_"
	l.metricNames = []string{
		p + "events_total", p + "reconnects_total", p + "gaps_total",
		p + "lag", p + "last_gen", p + "up",
	}
	reg := m.broker.reg
	l.events = reg.Counter(l.metricNames[0])
	l.reconnects = reg.Counter(l.metricNames[1])
	l.gaps = reg.Counter(l.metricNames[2])
	l.lag = reg.Gauge(l.metricNames[3])
	l.lastGenG = reg.Gauge(l.metricNames[4])
	l.upG = reg.Gauge(l.metricNames[5])
	return l
}

// Stats snapshots the link's counters.
func (l *Link) Stats() LinkStats {
	return LinkStats{
		Channel:    l.name,
		Home:       l.home,
		Connected:  l.connUp.Load(),
		LastGen:    l.lastGen.Load(),
		Events:     l.events.Value(),
		Reconnects: l.reconnects.Value(),
		Gaps:       l.gaps.Value(),
		Lag:        l.lag.Value(),
	}
}

// waitAttached blocks until the link's first successful attach, its close,
// or the timeout.
func (l *Link) waitAttached(timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-l.attached:
		return nil
	case <-l.done:
		return fmt.Errorf("echan: link to %s for %s closed before attaching", l.home, l.name)
	case <-t.C:
		return fmt.Errorf("echan: link to %s for %s: attach timed out after %v", l.home, l.name, timeout)
	}
}

// Close tears the link down: the connection is closed, the session loop
// exits, and the link's metrics are unregistered.
func (l *Link) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return
	}
	l.closed = true
	conn := l.conn
	l.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	<-l.done
	for _, n := range l.metricNames {
		l.mesh.broker.reg.Unregister(n)
	}
}

func (l *Link) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// setConn records the live connection so Close can unblock a pending read;
// it reports false when the link is already closed (caller must discard).
func (l *Link) setConn(conn net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.conn = conn
	return true
}

// run is the link's session loop: attach, pump frames, reconnect on error
// with exponential backoff (reset whenever a session managed to deliver).
func (l *Link) run() {
	defer close(l.done)
	const minBackoff, maxBackoff = 20 * time.Millisecond, 2 * time.Second
	backoff := minBackoff
	for {
		if l.isClosed() {
			return
		}
		delivered := l.session()
		if l.isClosed() {
			return
		}
		if delivered {
			backoff = minBackoff
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// session runs one connection lifetime: dial, SUB ... link [after=...],
// then pump frames into the local proxy until the connection dies.  It
// reports whether any event was re-published this session.
func (l *Link) session() (delivered bool) {
	conn, err := l.mesh.dial(l.home)
	if err != nil {
		return false
	}
	if !l.setConn(conn) {
		conn.Close()
		return false
	}
	defer conn.Close()

	cmd := "SUB " + l.name + " block link"
	resumed := l.haveGen.Load()
	if resumed {
		cmd += " after=" + strconv.FormatUint(l.lastGen.Load(), 10)
	}
	// The frames follow the OK line through the same reader, so any that
	// arrived with it are already buffered.
	c := newClient(conn)
	payload, err := c.Do(cmd)
	if err != nil {
		if resumed && strings.Contains(err.Error(), "no longer retained") {
			// The home cannot replay the missed span: re-attach fresh next
			// round and surface the loss.
			l.gaps.Inc()
			l.haveGen.Store(false)
		}
		return false
	}
	if !l.haveGen.Load() {
		// Fresh attach: the response's gen= token is the exact attach
		// position, the resume point if this session dies eventless.
		if g, ok := parseAttachGen(payload); ok {
			l.lastGen.Store(g)
			l.haveGen.Store(true)
		}
	}
	if l.attaches.Add(1) > 1 {
		l.reconnects.Inc()
	}
	l.attachOnce.Do(func() { close(l.attached) })
	l.connUp.Store(true)
	l.upG.Set(1)
	defer func() {
		l.connUp.Store(false)
		l.upG.Set(0)
	}()

	var buf []byte
	for {
		kind, payload, err := readFrameInto(c.rd, &buf)
		if err != nil {
			return delivered
		}
		switch kind {
		case transport.FrameFormat:
			f, err := meta.ParseCanonical(payload)
			if err != nil {
				return delivered
			}
			if _, err := l.mesh.broker.ctx.RegisterFormat(f); err != nil {
				return delivered
			}
			// A new format on the stream means the home's lineage moved:
			// pull it now so a pinned local subscriber sees the admitted
			// history before this format's first data frame re-publishes.
			// Best-effort — periodic gossip converges it regardless.
			if l.mesh.broker.SchemaRegistry() != nil {
				l.mesh.SyncLineage(l.home, l.name)
			}
		case transport.FrameDataSeq:
			gen, head, data, err := transport.ParseSeqPayload(payload)
			if err != nil {
				return delivered
			}
			if gen <= l.lastGen.Load() && l.haveGen.Load() {
				continue // resume overlap: already re-published
			}
			id, _, err := pbio.ParseHeader(data)
			if err != nil {
				return delivered
			}
			f, err := l.mesh.broker.ctx.LookupFormat(id)
			if err != nil {
				return delivered
			}
			// Re-publish under the home's own generation number, so a
			// subscriber's resume position ("after=<gen>") means the same
			// stream position on every broker it might reattach through.
			if l.local.PublishMessageAt(f, data, gen) != nil {
				return delivered
			}
			l.lastGen.Store(gen)
			l.haveGen.Store(true)
			l.events.Inc()
			l.lastGenG.Set(int64(gen))
			if head >= gen {
				l.lag.Set(int64(head - gen))
			}
			delivered = true
		default:
			return delivered
		}
	}
}

// parseAttachGen extracts the gen=<n> token from an "OK subscribed ..."
// response payload.
func parseAttachGen(payload string) (uint64, bool) {
	for _, tok := range strings.Fields(payload) {
		if v, ok := strings.CutPrefix(tok, "gen="); ok {
			g, err := strconv.ParseUint(v, 10, 64)
			return g, err == nil
		}
	}
	return 0, false
}
