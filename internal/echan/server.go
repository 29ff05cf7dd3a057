package echan

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/registry"
	"github.com/open-metadata/xmit/internal/transport"
)

// Server serves a Broker over TCP using the control protocol described in
// protocol.go: each connection starts in text mode and either stays a
// control connection (CREATE/DERIVE/STATS/LIST and the mesh verbs) or
// commits to a publisher or subscriber role and switches to transport
// frames.
type Server struct {
	broker *Broker
	mesh   atomic.Pointer[Mesh]

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]bool
	wg        sync.WaitGroup
	closed    bool
}

// NewServer creates a server over a (possibly shared) broker.
func NewServer(b *Broker) *Server {
	if b == nil {
		b = NewBroker()
	}
	return &Server{broker: b, conns: make(map[net.Conn]bool)}
}

// Broker returns the broker the server fronts.
func (s *Server) Broker() *Broker { return s.broker }

// AttachMesh federates the server: HELLO/HOME/PEERS/MESH answer, SUB
// resolves channel homes across the mesh, and PUB of a remote-homed channel
// forwards to its home.  Attach before peers or clients connect; the mesh
// is usually created after Listen (its identity is the bound address),
// which is why it is not a constructor option.
func (s *Server) AttachMesh(m *Mesh) { s.mesh.Store(m) }

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return s.serve(ln)
}

// ListenUnix starts accepting the same protocol on a unix-domain socket at
// path — the same-host fast lane.  Local subscribers reach the broker's
// refcounted frames through the vectored write path without the TCP stack
// in between; DialSubscriber and friends pick this lane automatically when
// given a socket path instead of host:port.  A stale socket file left by a
// dead broker is reclaimed, but only after a connect probe fails — a
// socket another live broker is serving is never unlinked.  The live
// socket is unlinked again on Close.
func (s *Server) ListenUnix(path string) (string, error) {
	ln, err := net.Listen("unix", path)
	if err != nil {
		fi, statErr := os.Lstat(path)
		if statErr != nil || fi.Mode()&os.ModeSocket == 0 {
			return "", err
		}
		if probe, dialErr := net.Dial("unix", path); dialErr == nil {
			probe.Close()
			return "", fmt.Errorf("echan: %s: socket in use by a live server", path)
		}
		os.Remove(path)
		if ln, err = net.Listen("unix", path); err != nil {
			return "", err
		}
	}
	return s.serve(ln)
}

// serve registers a listener and starts its accept loop, returning the
// bound address.
func (s *Server) serve(ln net.Listener) (string, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", ErrChannelClosed
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops every listener and tears down live connections.  The broker
// and its channels are left to their owner.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	lns := s.listeners
	s.listeners = nil
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close() // a *net.UnixListener also unlinks its socket file
	}
	s.wg.Wait()
	return nil
}

func writeLine(w io.Writer, line string) error {
	_, err := io.WriteString(w, line+"\n")
	return err
}

// errLine renders an error as a protocol ERR line.  A schema-registry
// *CompatError travels typed: "ERR compat <json>", which checkResponse on
// the client side decodes back into a *registry.CompatError — so a policy
// rejection keeps its structure (lineage, policy, offending fields) across
// any number of broker hops, forwardPublisher's byte pipe included.
func errLine(err error) string {
	var ce *registry.CompatError
	if errors.As(err, &ce) {
		if b, jerr := json.Marshal(ce); jerr == nil {
			return "ERR compat " + string(b)
		}
	}
	return "ERR " + err.Error()
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	rd := bufio.NewReader(conn)
	for {
		line, err := readLine(rd)
		if err != nil {
			return
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		cmd, err := ParseCommand(line)
		if err != nil {
			if writeLine(conn, "ERR "+err.Error()) != nil {
				return
			}
			continue
		}
		switch cmd.Verb {
		case VerbCreate:
			var opts []ChannelOption
			if cmd.OOB {
				opts = append(opts, WithOutOfBand())
			}
			if _, err := s.broker.Create(cmd.Name, opts...); err != nil {
				err = writeLine(conn, "ERR "+err.Error())
			} else {
				err = writeLine(conn, "OK created "+cmd.Name)
			}
			if err != nil {
				return
			}
		case VerbDerive:
			f, err := ParseFilter(cmd.Filter)
			if err == nil {
				_, err = s.broker.Derive(cmd.Name, cmd.Parent, f)
			}
			if err != nil {
				err = writeLine(conn, "ERR "+err.Error())
			} else {
				err = writeLine(conn, "OK derived "+cmd.Name)
			}
			if err != nil {
				return
			}
		case VerbStats:
			ch, ok := s.broker.Get(cmd.Name)
			if !ok {
				if writeLine(conn, "ERR "+ErrNoChannel.Error()+": "+cmd.Name) != nil {
					return
				}
				continue
			}
			st := ch.Stats()
			line := fmt.Sprintf(
				"OK published=%d delivered=%d dropped_oldest=%d dropped_newest=%d block_waits=%d subscribers=%d depth=%d head=%d",
				st.Published, st.Delivered, st.DroppedOldest, st.DroppedNewest,
				st.BlockWaits, st.Subscribers, st.Depth, st.Head)
			if writeLine(conn, line) != nil {
				return
			}
		case VerbList:
			if writeLine(conn, "OK "+strings.Join(s.broker.Channels(), " ")) != nil {
				return
			}
		case VerbHello:
			m := s.mesh.Load()
			if m == nil {
				if writeLine(conn, "ERR not federated") != nil {
					return
				}
				continue
			}
			if writeLine(conn, "OK "+m.HandleHello(cmd.Addr)) != nil {
				return
			}
		case VerbHome:
			m := s.mesh.Load()
			if m == nil {
				if writeLine(conn, "ERR not federated") != nil {
					return
				}
				continue
			}
			home, ok := m.Home(cmd.Name)
			if !ok {
				if writeLine(conn, "ERR "+ErrNoChannel.Error()+": "+cmd.Name) != nil {
					return
				}
				continue
			}
			if writeLine(conn, "OK "+home) != nil {
				return
			}
		case VerbPeers:
			m := s.mesh.Load()
			if m == nil {
				if writeLine(conn, "ERR not federated") != nil {
					return
				}
				continue
			}
			if writeLine(conn, "OK "+strings.Join(m.Peers(), " ")) != nil {
				return
			}
		case VerbMesh:
			m := s.mesh.Load()
			if m == nil {
				if writeLine(conn, "ERR not federated") != nil {
					return
				}
				continue
			}
			if writeLine(conn, "OK "+m.StatsLine()) != nil {
				return
			}
		case VerbLineage:
			if s.serveLineage(conn, cmd) != nil {
				return
			}
		case VerbLineages:
			if s.serveLineages(conn, cmd) != nil {
				return
			}
		case VerbPolicy:
			sr := s.broker.SchemaRegistry()
			if sr == nil {
				if writeLine(conn, "ERR "+ErrNoSchemaRegistry.Error()) != nil {
					return
				}
				continue
			}
			if err := sr.SetPolicy(s.lineageFor(cmd.Name), cmd.Compat); err != nil {
				err = writeLine(conn, errLine(err))
			} else {
				err = writeLine(conn, "OK policy "+cmd.Compat.String())
			}
			if err != nil {
				return
			}
		case VerbUnsub:
			if writeLine(conn, "ERR not subscribed") != nil {
				return
			}
		case VerbPub:
			s.servePublisher(conn, rd, cmd)
			return
		case VerbSub:
			s.serveSubscriber(conn, rd, cmd)
			return
		}
	}
}

// lineageFor maps a channel name to its lineage name: a derived channel
// shares its parent's lineage (derived channels share the parent's formats),
// any other name — including a channel not yet created — is its own.
func (s *Server) lineageFor(name string) string {
	if ch, ok := s.broker.Get(name); ok {
		return ch.lineageName()
	}
	return name
}

// serveLineage answers LINEAGE <channel> with one line describing the
// channel's format lineage: policy, head version, and every version's
// format ID.  The returned error is a connection write failure; registry
// misses answer as ERR lines.
func (s *Server) serveLineage(conn net.Conn, cmd Command) error {
	sr := s.broker.SchemaRegistry()
	if sr == nil {
		return writeLine(conn, "ERR "+ErrNoSchemaRegistry.Error())
	}
	l, err := sr.Lineage(s.lineageFor(cmd.Name))
	if err != nil {
		return writeLine(conn, "ERR "+err.Error()+": "+cmd.Name)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "OK name=%s policy=%s head=%d", l.Name(), l.Policy(), l.Len())
	for _, v := range l.Versions() {
		fmt.Fprintf(&sb, " v%d=%#x", v.Version, uint64(v.ID))
	}
	return writeLine(conn, sb.String())
}

// serveLineages answers the LINEAGES gossip verb: "OK rev=<r> bytes=<n>"
// followed by exactly n bytes — the lineage discovery document (canonical
// format bodies included) for every lineage matching the query.  With
// "after=<rev>" only lineages mutated past that registry revision are
// shipped (the incremental delta a peer pulls each hello round); with a
// channel name, just that channel's lineage.  The returned error is a
// connection write failure.
func (s *Server) serveLineages(conn net.Conn, cmd Command) error {
	sr := s.broker.SchemaRegistry()
	if sr == nil {
		return writeLine(conn, "ERR "+ErrNoSchemaRegistry.Error())
	}
	// The revision is read before the snapshot: a mutation landing between
	// the two is then re-shipped on the next delta rather than lost.
	rev := sr.Rev()
	var docs []discovery.LineageDoc
	switch {
	case cmd.Name != "":
		l, err := sr.Lineage(s.lineageFor(cmd.Name))
		if err != nil {
			return writeLine(conn, "ERR "+err.Error()+": "+cmd.Name)
		}
		docs = []discovery.LineageDoc{discovery.SnapshotLineageDoc(l)}
	case cmd.HasAfter:
		docs = discovery.SnapshotLineagesSince(sr, cmd.After)
	default:
		docs = discovery.SnapshotLineagesFull(sr)
	}
	data := discovery.MarshalLineages(docs)
	if err := writeLine(conn, fmt.Sprintf("OK rev=%d bytes=%d", rev, len(data))); err != nil {
		return err
	}
	_, err := conn.Write(data)
	return err
}

// servePublisher turns the connection into a frame stream feeding a
// channel.  Format frames register metadata with the broker's context; data
// frames are looked up by format ID and republished.  An out-of-band
// publisher sends no format frames — the broker context's resolver (if any)
// supplies the metadata instead.  On a federated broker a channel homed
// elsewhere is forwarded: the publisher's bytes relay to the home broker,
// which owns ordering and retention for the channel.
func (s *Server) servePublisher(conn net.Conn, rd *bufio.Reader, cmd Command) {
	if m := s.mesh.Load(); m != nil {
		if home := m.ResolveHome(cmd.Name); home != m.Self() {
			s.forwardPublisher(conn, rd, home, cmd.Name)
			return
		}
	}
	ch, err := s.broker.GetOrCreate(cmd.Name)
	if err != nil {
		writeLine(conn, "ERR "+err.Error())
		return
	}
	if err := writeLine(conn, "OK publishing "+cmd.Name); err != nil {
		return
	}
	var buf []byte
	for {
		kind, payload, err := readFrameInto(rd, &buf)
		if err != nil {
			return // EOF: publisher done
		}
		switch kind {
		case transport.FrameFormat:
			f, err := meta.ParseCanonical(payload)
			if err != nil {
				writeLine(conn, "ERR bad format frame: "+err.Error())
				return
			}
			if _, err := s.broker.ctx.RegisterFormat(f); err != nil {
				writeLine(conn, "ERR "+err.Error())
				return
			}
		case transport.FrameData:
			id, _, err := pbio.ParseHeader(payload)
			if err != nil {
				writeLine(conn, "ERR "+err.Error())
				return
			}
			f, err := s.broker.ctx.LookupFormat(id)
			if err != nil {
				writeLine(conn, "ERR "+err.Error())
				return
			}
			if err := ch.PublishMessage(f, payload); err != nil {
				// A schema-registry rejection leaves as the typed "ERR
				// compat" line; through forwardPublisher's byte pipe it
				// reaches a remote publisher verbatim, so the home broker's
				// policy decision arrives structured wherever the publish
				// originated.
				writeLine(conn, errLine(err))
				return
			}
		default:
			writeLine(conn, fmt.Sprintf("ERR unknown frame kind %d", kind))
			return
		}
	}
}

// forwardPublisher relays a publisher whose channel is homed on another
// broker: a dumb byte pipe to the home's own PUB stream, so the home keeps
// sole ownership of ordering, retention, and generation numbering.  A
// forwarding failure surfaces to the publisher as a dropped connection —
// at-least-once from the publisher's perspective, exactly like publishing
// to the home directly.
func (s *Server) forwardPublisher(conn net.Conn, rd *bufio.Reader, home, name string) {
	m := s.mesh.Load()
	up, err := m.dial(home)
	if err != nil {
		writeLine(conn, "ERR forwarding to "+home+": "+err.Error())
		return
	}
	defer up.Close()
	upc := newClient(up)
	resp, err := upc.Do("PUB " + name)
	if err != nil {
		writeLine(conn, "ERR forwarding to "+home+": "+err.Error())
		return
	}
	if err := writeLine(conn, "OK "+resp+" via "+m.Self()); err != nil {
		return
	}
	// Upstream-to-client carries only terminal ERR lines; it exits when
	// either side closes, and the deferred up.Close unblocks it when the
	// publisher side finishes first.
	go io.Copy(conn, upc.rd)
	io.Copy(up, rd)
}

// serveSubscriber attaches the connection to a channel and then watches the
// text side for UNSUB (drain and detach) until the client disconnects.  On
// a federated broker the channel resolves across the mesh: a remote-homed
// channel is served from the local proxy fed by its inter-broker link.
func (s *Server) serveSubscriber(conn net.Conn, rd *bufio.Reader, cmd Command) {
	var ch *Channel
	var err error
	if m := s.mesh.Load(); m != nil {
		ch, err = m.SubscriberChannel(cmd.Name)
	} else {
		ch, err = s.broker.GetOrCreate(cmd.Name)
	}
	if err != nil {
		writeLine(conn, "ERR "+err.Error())
		return
	}
	var opts []SubOption
	if cmd.Queue > 0 {
		opts = append(opts, SubQueue(cmd.Queue))
	}
	if cmd.HasAfter {
		opts = append(opts, SubAfter(cmd.After))
	}
	var base Sink = newWriterSink(conn)
	if cmd.Link {
		base = &linkSink{w: conn}
	}
	// The subscription is created gated so the response line — which
	// carries the exact attach generation — is on the wire before the
	// writer goroutine can emit the first frame byte.  A version-pinned
	// subscription wraps the gated sink in the view (so the pinned
	// announcement is gated with everything else) and echoes the resolved
	// version in the response.
	ready := make(chan struct{})
	gated := gatedSink{sink: base, ready: ready}
	opts = append(opts, queuedOnly)
	var sub *Subscription
	var ver registry.Version
	if cmd.HasVer {
		// A pinned subscriber reattaching through a broker that is not the
		// channel's home needs the home's lineage before the view can
		// resolve — the local proxy may never have seen the announcement
		// frames (they flowed before this broker linked up).  Pull the
		// lineage from the home synchronously; gossip keeps it fresh after
		// that.  Best-effort: if the home is unreachable, ResolveView
		// reports what is actually missing.
		if m := s.mesh.Load(); m != nil {
			if home := m.ResolveHome(cmd.Name); home != m.Self() {
				m.SyncLineage(home, cmd.Name)
			}
		}
		var l *registry.Lineage
		if l, ver, err = ch.ResolveView(cmd.Version); err == nil {
			sub, err = ch.subscribePinned(gated, cmd.Policy, l, ver, opts...)
		}
	} else {
		sub, err = ch.SubscribeSink(gated, cmd.Policy, opts...)
	}
	if err != nil {
		close(ready)
		writeLine(conn, "ERR "+err.Error())
		return
	}
	resp := fmt.Sprintf("OK subscribed %s gen=%d", cmd.Name, sub.AttachGen())
	if cmd.HasVer {
		resp += fmt.Sprintf(" version=%d", ver.Version)
	}
	if err := writeLine(conn, resp); err != nil {
		close(ready)
		sub.abort()
		return
	}
	close(ready)
	for {
		line, err := readLine(rd)
		if err != nil {
			// Client went away; drop queued events and detach.
			sub.abort()
			return
		}
		if strings.EqualFold(strings.TrimSpace(line), "UNSUB") {
			// Drain what is queued, then EOF acknowledges the detach.
			sub.Close()
			return
		}
		// Any other text mid-stream is a protocol violation.
		sub.abort()
		return
	}
}

// readFrameInto reads one transport frame into *buf (grown as needed and
// reused across calls, so a steady publisher stream does not allocate).
func readFrameInto(rd *bufio.Reader, buf *[]byte) (byte, []byte, error) {
	var hdr [transport.FrameHeaderSize]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 || int64(n) > int64(maxEventFrame) {
		return 0, nil, fmt.Errorf("echan: frame of %d bytes out of range", n)
	}
	need := int(n) - 1
	if cap(*buf) < need {
		*buf = make([]byte, need)
	}
	b := (*buf)[:need]
	if _, err := io.ReadFull(rd, b); err != nil {
		return 0, nil, err
	}
	return hdr[4], b, nil
}
