package echan

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/obs"
)

// Mesh federates a broker with its peers: several echod processes, each
// owning a slice of the channel namespace, exchanging events over
// inter-broker links so a subscriber anywhere sees a channel published
// anywhere.
//
// The design is home-based partitioning, the shape the lattice-data-grid
// federations use for metadata catalogs applied to the delivery plane:
//
//   - Every channel has one home broker — the broker it was first created
//     or published on.  The home runs the real channel: ordering,
//     backpressure, retention, and generation numbering all happen there.
//   - A broker asked for a channel it does not own attaches a link
//     subscriber to the channel's home (SUB ... link) and re-publishes the
//     stream into a local proxy channel.  Local subscribers attach to the
//     proxy, so fan-out bandwidth is spent once per broker, not once per
//     subscriber — and events traverse the mesh exactly once.
//   - Peer discovery is gossiped: HELLO introduces a broker to a peer,
//     PEERS returns the peer's view, and the union converges after a round
//     or two.  An HTTP well-known document (internal/discovery) bootstraps
//     the first introduction.
//
// Exactly-once across link failure: link data frames carry publish
// generations (transport.FrameDataSeq); the downstream broker remembers the
// last generation it re-published and resumes with "after=<gen>" against
// the home's retention ring, discarding any overlap.  If retention no
// longer covers the gap the link re-attaches fresh and counts the gap —
// visible loss, never duplication.
//
// Known limit: ownership is first-use.  Two brokers racing to first-use
// the same unknown channel can each become its home; creating channels
// before publishing (or publishing through one broker) avoids the race.
type Mesh struct {
	broker        *Broker
	self          string
	dial          func(addr string) (net.Conn, error)
	helloEvery    time.Duration
	attachTimeout time.Duration

	mu     sync.Mutex
	peers  map[string]*peerState
	links  map[string]*Link
	homes  map[string]string // channel -> home broker address, learned via HOME
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup

	peersGauge     *obs.Gauge
	lineagePulls   *obs.Counter
	lineageAdopted *obs.Counter
}

// peerState tracks one known peer.
type peerState struct {
	addr    string
	alive   bool
	lastErr error
	// lineageRev is the peer registry's revision high-water mark as of our
	// last successful lineage pull; the next pull asks for "after=<rev>" so
	// gossip ships only the lineages that changed since.
	lineageRev uint64
}

// MeshOption configures a Mesh.
type MeshOption func(*Mesh)

// WithMeshDialer replaces the dialer used for inter-broker connections
// (links, HELLO rounds, HOME queries).  Tests wrap connections in
// transport.Chaos here to model flaky links.
func WithMeshDialer(dial func(addr string) (net.Conn, error)) MeshOption {
	return func(m *Mesh) { m.dial = dial }
}

// WithHelloInterval sets how often the mesh re-introduces itself to peers
// and refreshes its peer list (default 5s).
func WithHelloInterval(d time.Duration) MeshOption {
	return func(m *Mesh) {
		if d > 0 {
			m.helloEvery = d
		}
	}
}

// WithMeshAttachTimeout bounds how long a subscriber waits for a new link
// to complete its first attach to the channel's home (default 10s).
func WithMeshAttachTimeout(d time.Duration) MeshOption {
	return func(m *Mesh) {
		if d > 0 {
			m.attachTimeout = d
		}
	}
}

// NewMesh creates the federation layer for a broker.  self is the address
// peers dial this broker's control port on — it is the broker's identity in
// the mesh.  Call Start to begin peer gossip, and attach the mesh to the
// broker's Server so the control protocol answers HELLO/HOME/PEERS/MESH.
func NewMesh(b *Broker, self string, opts ...MeshOption) *Mesh {
	m := &Mesh{
		broker:        b,
		self:          self,
		helloEvery:    5 * time.Second,
		attachTimeout: 10 * time.Second,
		peers:         make(map[string]*peerState),
		links:         make(map[string]*Link),
		homes:         make(map[string]string),
		stop:          make(chan struct{}),
	}
	for _, o := range opts {
		o(m)
	}
	if m.dial == nil {
		m.dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	m.peersGauge = b.reg.Gauge("echan_mesh_peers")
	m.lineagePulls = b.reg.Counter("echan_mesh_lineage_pulls_total")
	m.lineageAdopted = b.reg.Counter("echan_mesh_lineage_adopted_total")
	return m
}

// Self returns the broker's advertised mesh address.
func (m *Mesh) Self() string { return m.self }

// AddPeer records a peer broker address, reporting whether it was new.
// The next hello round introduces us to it.
func (m *Mesh) AddPeer(addr string) bool {
	if addr == "" || addr == m.self {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.peers[addr]; ok {
		return false
	}
	m.peers[addr] = &peerState{addr: addr}
	m.peersGauge.Set(int64(len(m.peers)))
	return true
}

// Peers returns the known peer addresses, sorted.
func (m *Mesh) Peers() []string {
	m.mu.Lock()
	out := make([]string, 0, len(m.peers))
	for a := range m.peers {
		out = append(out, a)
	}
	m.mu.Unlock()
	sort.Strings(out)
	return out
}

// Start begins the gossip loop: an immediate hello round, then one per
// interval, until Close.
func (m *Mesh) Start() {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.helloRound()
		t := time.NewTicker(m.helloEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.helloRound()
			}
		}
	}()
}

// Close stops gossip and tears down every link.  The broker itself is left
// to its owner.
func (m *Mesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	links := make([]*Link, 0, len(m.links))
	for _, l := range m.links {
		links = append(links, l)
	}
	m.mu.Unlock()
	close(m.stop)
	for _, l := range links {
		l.Close()
	}
	m.wg.Wait()
	return nil
}

// helloRound introduces the broker to every known peer and merges each
// peer's own peer list, so membership converges transitively.  On a broker
// with a schema registry the round also pulls each peer's lineage delta —
// only the lineages mutated since the last pull — and folds it in, so
// registry state rides the same gossip cadence as membership.
func (m *Mesh) helloRound() {
	for _, addr := range m.Peers() {
		err := m.greet(addr)
		var after uint64
		m.mu.Lock()
		if p, ok := m.peers[addr]; ok {
			p.alive = err == nil
			p.lastErr = err
			after = p.lineageRev
		}
		m.mu.Unlock()
		if err != nil || m.broker.SchemaRegistry() == nil {
			continue
		}
		rev, pullErr := m.pullLineages(addr, after)
		if pullErr != nil {
			continue // transient; the next round retries from the same rev
		}
		m.mu.Lock()
		if p, ok := m.peers[addr]; ok && rev > p.lineageRev {
			p.lineageRev = rev
		}
		m.mu.Unlock()
	}
}

// pullLineages fetches one peer's lineage delta past the given registry
// revision and merges it into the local registry, returning the peer's
// current revision.  Lineages homed on this broker are skipped — we are
// their authority, and merging a peer's (possibly stale) echo of our own
// state back in could revert a local policy change.
func (m *Mesh) pullLineages(addr string, after uint64) (uint64, error) {
	rev, docs, err := m.fetchLineages(addr, "", after)
	if err != nil {
		return 0, err
	}
	m.lineagePulls.Inc()
	remote := docs[:0]
	for _, d := range docs {
		if home, ok := m.Home(d.Name); ok && home == m.self {
			continue
		}
		remote = append(remote, d)
	}
	n, err := discovery.MergeLineages(m.broker.SchemaRegistry(), remote, addr)
	if n > 0 {
		m.lineageAdopted.Add(int64(n))
	}
	if err != nil {
		return 0, err
	}
	return rev, nil
}

// SyncLineage pulls one channel's lineage from a specific broker (its home)
// and merges it into the local registry.  This is the on-demand path: a
// pinned subscriber attaching through a non-home broker needs the home's
// negotiated history before its view can resolve, and a link seeing a new
// format frame wants the lineage that admitted it.
func (m *Mesh) SyncLineage(home, channel string) error {
	sr := m.broker.SchemaRegistry()
	if sr == nil {
		return ErrNoSchemaRegistry
	}
	_, docs, err := m.fetchLineages(home, channel, 0)
	if err != nil {
		return err
	}
	m.lineagePulls.Inc()
	n, err := discovery.MergeLineages(sr, docs, home)
	if n > 0 {
		m.lineageAdopted.Add(int64(n))
	}
	return err
}

// control dials a peer with the mesh dialer for one short control exchange,
// bounded to 5 s.
func (m *Mesh) control(addr string) (*Client, error) {
	conn, err := m.dial(addr)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return newClient(conn), nil
}

// fetchLineages runs one LINEAGES request against addr (see
// Client.Lineages).
func (m *Mesh) fetchLineages(addr, channel string, after uint64) (uint64, []discovery.LineageDoc, error) {
	c, err := m.control(addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	return c.Lineages(channel, after)
}

// greet runs one HELLO + PEERS exchange with a peer.
func (m *Mesh) greet(addr string) error {
	c, err := m.control(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Hello(m.self); err != nil {
		return err
	}
	peers, err := c.Peers()
	if err != nil {
		return err
	}
	for _, a := range peers {
		m.AddPeer(a)
	}
	return nil
}

// HandleHello records a peer that introduced itself (the server side of
// HELLO) and returns our own identity for the response.
func (m *Mesh) HandleHello(addr string) string {
	m.AddPeer(addr)
	return m.self
}

// Home returns this broker's local view of where a channel lives: self for
// channels homed here, the link's home for proxied channels, a cached
// answer for channels it has heard about — "" when it has no idea.  It
// never queries peers, so HOME answers cannot loop.
func (m *Mesh) Home(name string) (string, bool) {
	m.mu.Lock()
	if l, ok := m.links[name]; ok {
		m.mu.Unlock()
		return l.home, true
	}
	if h, ok := m.homes[name]; ok {
		m.mu.Unlock()
		return h, true
	}
	m.mu.Unlock()
	if _, ok := m.broker.Get(name); ok {
		return m.self, true
	}
	return "", false
}

// ResolveHome finds a channel's home broker: the local view first, then a
// HOME query to each peer.  A channel no broker knows resolves to self —
// first use makes this broker its home.
func (m *Mesh) ResolveHome(name string) string {
	if home, ok := m.Home(name); ok {
		return home
	}
	for _, peer := range m.Peers() {
		home, err := m.queryHome(peer, name)
		if err != nil || home == "" {
			continue
		}
		m.mu.Lock()
		m.homes[name] = home
		m.mu.Unlock()
		return home
	}
	return m.self
}

// queryHome asks one peer where a channel lives.
func (m *Mesh) queryHome(peer, name string) (string, error) {
	c, err := m.control(peer)
	if err != nil {
		return "", err
	}
	defer c.Close()
	return c.Home(name)
}

// SubscriberChannel returns the channel a local subscriber should attach
// to: the real channel when it is homed here, otherwise the local proxy fed
// by a link to the channel's home (starting the link on first use and
// waiting for its first attach, so a subscribe to an unreachable home fails
// rather than silently delivering nothing).
func (m *Mesh) SubscriberChannel(name string) (*Channel, error) {
	home := m.ResolveHome(name)
	if home == m.self {
		return m.broker.GetOrCreate(name)
	}
	l, err := m.ensureLink(name, home)
	if err != nil {
		return nil, err
	}
	if err := l.waitAttached(m.attachTimeout); err != nil {
		m.dropLink(l)
		return nil, err
	}
	return l.local, nil
}

// ensureLink returns the channel's link, starting one on first use.
func (m *Mesh) ensureLink(name, home string) (*Link, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrChannelClosed
	}
	if l, ok := m.links[name]; ok {
		return l, nil
	}
	local, err := m.broker.GetOrCreate(name)
	if err != nil {
		return nil, err
	}
	// The proxy republishes a stream the home broker already admitted:
	// formats announced through it are adopted into the local registry
	// (home ordering, no local policy re-check).  See Channel.adopted.
	local.adopted.Store(true)
	l := newLink(m, name, home, local)
	m.links[name] = l
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		l.run()
	}()
	return l, nil
}

// dropLink removes and closes a link (failed first attach).
func (m *Mesh) dropLink(l *Link) {
	m.mu.Lock()
	if m.links[l.name] == l {
		delete(m.links, l.name)
	}
	m.mu.Unlock()
	l.Close()
}

// Links snapshots every link's stats, sorted by channel name.
func (m *Mesh) Links() []LinkStats {
	m.mu.Lock()
	links := make([]*Link, 0, len(m.links))
	for _, l := range m.links {
		links = append(links, l)
	}
	m.mu.Unlock()
	out := make([]LinkStats, 0, len(links))
	for _, l := range links {
		out = append(out, l.Stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Channel < out[j].Channel })
	return out
}

// StatsLine renders the MESH control response: the broker's identity, peer
// count, and one token per link with its delivery counters.
func (m *Mesh) StatsLine() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "self=%s peers=%d links=%d", m.self, len(m.Peers()), len(m.Links()))
	for _, ls := range m.Links() {
		up := 0
		if ls.Connected {
			up = 1
		}
		fmt.Fprintf(&sb, " link=%s@%s:gen=%d,events=%d,reconnects=%d,gaps=%d,lag=%d,up=%d",
			ls.Channel, ls.Home, ls.LastGen, ls.Events, ls.Reconnects, ls.Gaps, ls.Lag, up)
	}
	return sb.String()
}
