package echan

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/registry"
	"github.com/open-metadata/xmit/internal/transport"
)

// isSocketPath reports whether a broker address names a unix-domain socket
// rather than a TCP host:port: anything with a path separator (or an
// abstract-socket "@" prefix, or an explicit "unix:" scheme).  Channel
// names can't contain "/", and a host:port never does either, so the two
// address families never collide.
func isSocketPath(addr string) bool {
	return strings.HasPrefix(addr, "unix:") ||
		strings.HasPrefix(addr, "@") ||
		strings.ContainsRune(addr, '/')
}

// dialBroker connects to a broker daemon, picking the same-host unix-socket
// fast lane transparently when addr is a socket path (see Server.ListenUnix)
// and TCP otherwise.
func dialBroker(addr string) (net.Conn, error) {
	if isSocketPath(addr) {
		conn, err := net.Dial("unix", strings.TrimPrefix(addr, "unix:"))
		if err != nil {
			return nil, fmt.Errorf("echan: connecting to %s: %w", addr, err)
		}
		return conn, nil
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("echan: connecting to %s: %w", addr, err)
	}
	return conn, nil
}

// readLine reads one control line — a command on the broker side, an
// "OK ..."/"ERR ..." response on the client side — through the
// connection's one buffered reader, and returns it without its line end.
// Bytes past the newline stay in rd: on a client they may already be the
// first transport frames, which the frame reader built on rd goes on to
// read.  A line is bounded by maxCommandLine, newline included, so a peer
// that never sends one cannot make the reader allocate more.  A read error
// (a Status deadline, say) consumes nothing, so a line still arriving is
// read whole by the next call.
func readLine(rd *bufio.Reader) (string, error) {
	scanned := 0
	for {
		buf, _ := rd.Peek(min(rd.Buffered(), maxCommandLine))
		if i := bytes.IndexByte(buf[scanned:], '\n'); i >= 0 {
			line := string(buf[:scanned+i])
			rd.Discard(scanned + i + 1)
			return strings.TrimRight(line, "\r"), nil
		}
		if scanned = len(buf); scanned == maxCommandLine {
			return "", fmt.Errorf("echan: control line over %d bytes", maxCommandLine)
		}
		if _, err := rd.Peek(scanned + 1); err != nil {
			return "", err
		}
	}
}

// checkResponse splits a response line into its payload, turning "ERR ..."
// into an error.  The typed "ERR compat <json>" line (a schema-registry
// rejection, possibly relayed through any number of brokers) decodes back
// into a *registry.CompatError, so errors.As works at the far end exactly
// as it does next to the registry.
func checkResponse(line string) (string, error) {
	switch {
	case line == "OK":
		return "", nil
	case strings.HasPrefix(line, "OK "):
		return line[len("OK "):], nil
	case strings.HasPrefix(line, "ERR compat "):
		if ce, err := registry.DecodeCompatJSON([]byte(line[len("ERR compat "):])); err == nil {
			return "", ce
		}
		return "", fmt.Errorf("echan: broker: %s", line[len("ERR "):])
	case strings.HasPrefix(line, "ERR "):
		return "", fmt.Errorf("echan: broker: %s", line[len("ERR "):])
	}
	return "", fmt.Errorf("echan: malformed broker response %q", line)
}

// Client is a control connection to a broker daemon, for channel management
// and stats; use DialPublisher/DialSubscriber for data streams.
type Client struct {
	conn net.Conn
	rd   *bufio.Reader // every response is read through it
}

func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, rd: bufio.NewReader(conn)}
}

// DialControl opens a control connection to the broker at addr (host:port,
// or a unix socket path for a broker with a -unix lane).
func DialControl(addr string) (*Client, error) {
	conn, err := dialBroker(addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

// dialRole opens a connection to the broker and commits it to a data role
// with one control line (PUB or SUB).  The client's reader may already hold
// the first frames the broker sent after its "OK"; the caller receives
// through that reader (transport.NewConnReader).
func dialRole(addr, line string) (*Client, error) {
	c, err := DialControl(addr)
	if err != nil {
		return nil, err
	}
	if _, err := c.Do(line); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Do sends one raw control line and returns the response payload.
func (c *Client) Do(line string) (string, error) {
	if err := writeLine(c.conn, line); err != nil {
		return "", err
	}
	resp, err := readLine(c.rd)
	if err != nil {
		return "", err
	}
	return checkResponse(resp)
}

// Create creates a channel on the broker.
func (c *Client) Create(name string) error {
	_, err := c.Do("CREATE " + name)
	return err
}

// Derive creates a filtered channel fed by parent.
func (c *Client) Derive(name, parent, filter string) error {
	_, err := c.Do("DERIVE " + name + " " + parent + " " + filter)
	return err
}

// List returns the broker's channel names.
func (c *Client) List() ([]string, error) {
	resp, err := c.Do("LIST")
	if err != nil {
		return nil, err
	}
	return strings.Fields(resp), nil
}

// Stats fetches a channel's counters.
func (c *Client) Stats(name string) (ChannelStats, error) {
	resp, err := c.Do("STATS " + name)
	if err != nil {
		return ChannelStats{}, err
	}
	var st ChannelStats
	for _, kv := range strings.Fields(resp) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return st, fmt.Errorf("echan: malformed stats field %q", kv)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return st, fmt.Errorf("echan: malformed stats value %q", kv)
		}
		switch k {
		case "published":
			st.Published = n
		case "delivered":
			st.Delivered = n
		case "dropped_oldest":
			st.DroppedOldest = n
		case "dropped_newest":
			st.DroppedNewest = n
		case "block_waits":
			st.BlockWaits = n
		case "subscribers":
			st.Subscribers = n
		case "depth":
			st.Depth = n
		case "head":
			st.Head = uint64(n)
		}
	}
	return st, nil
}

// Hello introduces a broker (addr: its advertised mesh address) to this
// one and returns the receiving broker's own mesh identity.  Federated
// brokers exchange it; a plain broker answers ERR.
func (c *Client) Hello(addr string) (string, error) {
	return c.Do("HELLO " + addr)
}

// Home returns the address of the broker a channel lives on.
func (c *Client) Home(name string) (string, error) {
	return c.Do("HOME " + name)
}

// Peers returns the broker's known mesh peers.
func (c *Client) Peers() ([]string, error) {
	resp, err := c.Do("PEERS")
	if err != nil {
		return nil, err
	}
	return strings.Fields(resp), nil
}

// MeshLine returns the broker's raw MESH stats line (self, peer count, and
// per-link delivery counters).
func (c *Client) MeshLine() (string, error) {
	return c.Do("MESH")
}

// LineageInfo is the parsed answer to a LINEAGE query: the lineage's
// compatibility policy and the format ID of every version, oldest first
// (VersionIDs[0] is v1, the last element is the head).
type LineageInfo struct {
	Name       string
	Policy     registry.Policy
	VersionIDs []uint64
}

// Lineage fetches a channel's format lineage: its policy and versions.  It
// fails for a broker without a schema registry or a channel that has never
// announced a format.
func (c *Client) Lineage(name string) (LineageInfo, error) {
	resp, err := c.Do("LINEAGE " + name)
	if err != nil {
		return LineageInfo{}, err
	}
	var info LineageInfo
	head := -1
	for _, kv := range strings.Fields(resp) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return info, fmt.Errorf("echan: malformed lineage field %q", kv)
		}
		switch {
		case k == "name":
			info.Name = v
		case k == "policy":
			if info.Policy, err = registry.ParsePolicy(v); err != nil {
				return info, err
			}
		case k == "head":
			if head, err = strconv.Atoi(v); err != nil {
				return info, fmt.Errorf("echan: malformed lineage head %q", kv)
			}
		case len(k) > 1 && k[0] == 'v':
			id, err := strconv.ParseUint(strings.TrimPrefix(v, "0x"), 16, 64)
			if err != nil {
				return info, fmt.Errorf("echan: malformed lineage version %q", kv)
			}
			info.VersionIDs = append(info.VersionIDs, id)
		}
	}
	if head != len(info.VersionIDs) {
		return info, fmt.Errorf("echan: lineage head=%d but %d versions listed", head, len(info.VersionIDs))
	}
	return info, nil
}

// Lineages fetches the broker's lineage state as discovery documents with
// full format bodies — the same documents brokers gossip to each other.
// channel != "" narrows to that one channel's lineage; otherwise after > 0
// narrows to lineages mutated past registry revision after (a delta pull;
// after == 0 fetches everything).  The returned rev is the broker's
// registry revision at snapshot time: feed it back as after on the next
// call to pull only what changed since.
func (c *Client) Lineages(channel string, after uint64) (rev uint64, docs []discovery.LineageDoc, err error) {
	line := "LINEAGES"
	switch {
	case channel != "":
		line += " " + channel
	case after > 0:
		line += " after=" + strconv.FormatUint(after, 10)
	}
	payload, err := c.Do(line)
	if err != nil {
		return 0, nil, err
	}
	var size int64 = -1
	for _, tok := range strings.Fields(payload) {
		if v, ok := strings.CutPrefix(tok, "rev="); ok {
			if rev, err = strconv.ParseUint(v, 10, 64); err != nil {
				return 0, nil, fmt.Errorf("echan: malformed lineages rev %q", tok)
			}
		}
		if v, ok := strings.CutPrefix(tok, "bytes="); ok {
			if size, err = strconv.ParseInt(v, 10, 64); err != nil || size < 0 {
				return 0, nil, fmt.Errorf("echan: malformed lineages size %q", tok)
			}
		}
	}
	if size < 0 {
		return 0, nil, fmt.Errorf("echan: lineages response missing bytes= (%q)", payload)
	}
	if size > maxLineagesBytes {
		return 0, nil, fmt.Errorf("echan: %d-byte lineages document over the %d-byte cap", size, maxLineagesBytes)
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(c.rd, data); err != nil {
		return 0, nil, fmt.Errorf("echan: reading lineages payload: %w", err)
	}
	if docs, err = discovery.ParseLineages(data); err != nil {
		return 0, nil, err
	}
	return rev, docs, nil
}

// SetPolicy sets a channel lineage's compatibility policy on the broker.
// Tightening fails if the lineage's existing history already violates the
// new policy.
func (c *Client) SetPolicy(name string, p registry.Policy) error {
	_, err := c.Do("POLICY " + name + " " + p.String())
	return err
}

// Close tears down the control connection.
func (c *Client) Close() error { return c.conn.Close() }

// DialPublisher connects to the broker and binds the connection to a
// channel as a publisher.  The returned transport.Conn sends through the
// broker: Send/SendRecord fan out to the channel's subscribers.  ctx
// determines the wire formats; the connection announces them in-band to the
// broker, which re-announces to subscribers as needed.
func DialPublisher(addr, channel string, ctx *pbio.Context, opts ...transport.ConnOption) (*transport.Conn, error) {
	p, err := DialPublisherConn(addr, channel, ctx, opts...)
	if err != nil {
		return nil, err
	}
	return p.Conn, nil
}

// PublisherConn is a publisher's connection that keeps the raw socket and
// its reader at hand, so asynchronous broker rejections — a schema-registry
// compat refusal arrives as an "ERR compat <json>" line after the offending
// format frame, not as a send failure — can be read back with Status.
type PublisherConn struct {
	*transport.Conn
	nc net.Conn
	rd *bufio.Reader
}

// DialPublisherConn is DialPublisher returning a PublisherConn.
func DialPublisherConn(addr, channel string, ctx *pbio.Context, opts ...transport.ConnOption) (*PublisherConn, error) {
	c, err := dialRole(addr, "PUB "+channel)
	if err != nil {
		return nil, err
	}
	return &PublisherConn{Conn: transport.NewConnReader(c.conn, c.rd, ctx, opts...), nc: c.conn, rd: c.rd}, nil
}

// Status polls for a pending broker error line, waiting at most timeout.
// It returns nil when the broker has said nothing (the publisher is in
// good standing), or the decoded error — a *registry.CompatError for a
// policy rejection, even one resolved at a remote home broker and relayed
// back through the mesh.  After a non-nil Status the broker has dropped
// the publisher; the connection is only good for Close.
func (p *PublisherConn) Status(timeout time.Duration) error {
	if err := p.nc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	defer p.nc.SetReadDeadline(time.Time{})
	line, err := readLine(p.rd)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil
		}
		return err
	}
	if _, cerr := checkResponse(line); cerr != nil {
		return cerr
	}
	return nil
}

// SubscriberConn is a subscriber's connection to a broker channel: a
// transport.Conn for receiving events plus the control verb to detach.
type SubscriberConn struct {
	*transport.Conn
	nc net.Conn
}

// DialSubscriber connects to the broker and subscribes to a channel under
// the given policy (queue <= 0 uses the channel default).  Received events
// decode through ctx; for out-of-band channels give ctx a resolver.  When
// addr is a unix socket path (a broker started with -unix) the same-host
// fast lane is selected transparently: the broker's vectored writes land on
// the socketpair directly, with no TCP framing overhead.
func DialSubscriber(addr, channel string, policy Policy, queue int, ctx *pbio.Context, opts ...transport.ConnOption) (*SubscriberConn, error) {
	return dialSubscriber(addr, channel, policy, queue, "", ctx, opts...)
}

// DialSubscriberVersion is DialSubscriber with the subscription pinned to
// lineage version n (n == 0 pins the broker's current head): announcement
// replay serves version n and events encoded under other lineage versions
// are field-projected onto it before delivery.  Needs a broker with a
// schema registry (echod -policy).
func DialSubscriberVersion(addr, channel string, policy Policy, queue, n int, ctx *pbio.Context, opts ...transport.ConnOption) (*SubscriberConn, error) {
	return dialSubscriber(addr, channel, policy, queue, " version="+strconv.Itoa(n), ctx, opts...)
}

// DialSubscriberVersionAfter is DialSubscriberVersion resuming after a
// known stream generation: the broker replays retained events past gen
// before going live, still projected onto lineage version n.  Mesh proxies
// re-publish under the home broker's generation numbers, so a resume
// position learned on one broker means the same stream position on any
// broker the subscriber reattaches through.  An uncoverable resume (the
// span has left retention) fails with an error naming the retention gap
// rather than silently skipping.
func DialSubscriberVersionAfter(addr, channel string, policy Policy, queue, n int, gen uint64, ctx *pbio.Context, opts ...transport.ConnOption) (*SubscriberConn, error) {
	extra := " version=" + strconv.Itoa(n) + " after=" + strconv.FormatUint(gen, 10)
	return dialSubscriber(addr, channel, policy, queue, extra, ctx, opts...)
}

func dialSubscriber(addr, channel string, policy Policy, queue int, extra string, ctx *pbio.Context, opts ...transport.ConnOption) (*SubscriberConn, error) {
	cmd := "SUB " + channel + " " + policy.String()
	if queue > 0 {
		cmd += " " + strconv.Itoa(queue)
	}
	c, err := dialRole(addr, cmd+extra)
	if err != nil {
		return nil, err
	}
	return &SubscriberConn{Conn: transport.NewConnReader(c.conn, c.rd, ctx, opts...), nc: c.conn}, nil
}

// Unsubscribe asks the broker to drain and detach.  Keep calling Recv until
// it returns an error (io.EOF once the broker closes the stream) to consume
// whatever was still queued.
func (s *SubscriberConn) Unsubscribe() error {
	return writeLine(s.nc, "UNSUB")
}
