// Package fmtserver implements the format server: a network service that
// maps content-derived format IDs to format metadata.  Senders register the
// formats they use; receivers that encounter an unknown ID in a data stream
// resolve it here.  This realises the "metadata provided by a directory
// server" discovery mode the paper's orthogonality argument calls for —
// switching a system from compiled-in metadata to server-provided metadata
// changes discovery only, not binding or marshaling.
package fmtserver

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/registry"
)

// Registry is the server-side store: canonical metadata keyed by format ID.
// It is safe for concurrent use and usable in-process (without the TCP
// layer) as a pbio.FormatResolver.
//
// With a schema registry attached (AttachLineages) every registration also
// joins the lineage named after the format, so the directory server tracks
// format evolution and enforces the lineage's compatibility policy: a
// violating registration is rejected with a *registry.CompatError and
// nothing is stored.
type Registry struct {
	mu   sync.RWMutex
	byID map[meta.FormatID][]byte

	lineages atomic.Pointer[registry.Registry]
	blobs    atomic.Pointer[BlobStore]

	stats RegistryStats
}

// BlobStore is the persistence hook for the format catalogue: new
// registrations are written through as canonical-format bodies, and
// WarmFromStore replays every stored format at startup — so a restarted
// directory server serves its full catalogue from local disk with zero
// re-registrations.  internal/store implements it.
type BlobStore interface {
	// PutFormat stores a format's canonical bytes, keyed by content hash.
	PutFormat(f *meta.Format) (meta.FormatID, error)
	// Formats yields every stored format until yield returns false: its ID
	// (verified against the bytes by the store), its canonical bytes in a
	// slice the caller may keep but not write, and the parsed format.
	Formats(yield func(id meta.FormatID, canonical []byte, f *meta.Format) bool)
}

// RegistryStats counts registry traffic; as a service's format catalogue
// this is shared infrastructure whose load must be observable.  All fields
// are atomics; read them via Stats or export them with PublishMetrics.
type RegistryStats struct {
	Registrations    atomic.Int64 // register calls (including repeats)
	RegistrationsNew atomic.Int64 // registrations that stored a new format
	RegisterErrors   atomic.Int64 // registrations rejected as invalid
	Lookups          atomic.Int64 // lookup/resolve calls
	LookupMisses     atomic.Int64 // lookups of unknown IDs
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[meta.FormatID][]byte)}
}

// Stats returns a snapshot of the registry's traffic counters as plain
// values: registrations, new registrations, rejected registrations,
// lookups, and lookup misses.
func (r *Registry) Stats() (registrations, registrationsNew, registerErrors, lookups, lookupMisses int64) {
	return r.stats.Registrations.Load(),
		r.stats.RegistrationsNew.Load(),
		r.stats.RegisterErrors.Load(),
		r.stats.Lookups.Load(),
		r.stats.LookupMisses.Load()
}

// PublishMetrics registers the registry's live counters, plus a gauge of
// the number of stored formats, in an obs registry under the given prefix
// (e.g. "fmtserver").
func (r *Registry) PublishMetrics(reg *obs.Registry, prefix string) {
	read := func(v *atomic.Int64) obs.Func {
		return func() float64 { return float64(v.Load()) }
	}
	reg.RegisterFunc(prefix+"_register_total", read(&r.stats.Registrations))
	reg.RegisterFunc(prefix+"_register_new_total", read(&r.stats.RegistrationsNew))
	reg.RegisterFunc(prefix+"_register_error_total", read(&r.stats.RegisterErrors))
	reg.RegisterFunc(prefix+"_lookup_total", read(&r.stats.Lookups))
	reg.RegisterFunc(prefix+"_lookup_miss_total", read(&r.stats.LookupMisses))
	reg.RegisterFunc(prefix+"_formats", func() float64 {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return float64(len(r.byID))
	})
}

// AttachLineages wires a schema registry into the format store: every
// subsequent registration joins the lineage named after the format.  Attach
// before serving; re-attaching replaces the store.
func (r *Registry) AttachLineages(lr *registry.Registry) { r.lineages.Store(lr) }

// Lineages returns the attached schema registry, or nil.
func (r *Registry) Lineages() *registry.Registry { return r.lineages.Load() }

// AttachStore wires a blob store into the registry: every new registration
// is written through to disk.  Attach before serving (usually right after
// WarmFromStore); passing nil detaches.
func (r *Registry) AttachStore(bs BlobStore) {
	if bs == nil {
		r.blobs.Store(nil)
		return
	}
	r.blobs.Store(&bs)
}

// WarmFromStore loads every format persisted in bs into the catalogue,
// warming it from local disk without a single remote fetch.  The store hands
// over each format's bytes together with the format it already parsed (for
// registry recovery, if that ran first), so the warm reads and parses
// nothing itself and the catalogue serves the store's bytes without copying
// them.  With lineages attached each format is registered with its lineage;
// one the policy would not re-admit is skipped — the store may hold formats
// journaled for lineage recovery only.  The ID is the store's verified key
// rather than re-derived, and the whole batch enters the catalogue under one
// lock acquisition.  Nothing is written back to an attached store.  Returns
// the number of stored formats now resident; the error is always nil (the
// store did its reading when it was opened).
func (r *Registry) WarmFromStore(bs BlobStore) (int, error) {
	type entry struct {
		id   meta.FormatID
		data []byte
	}
	var batch []entry
	bs.Formats(func(id meta.FormatID, canonical []byte, f *meta.Format) bool {
		if _, err := r.admit(f, nil); err == nil {
			batch = append(batch, entry{id, canonical})
		}
		return true
	})
	added := 0
	r.mu.Lock()
	for _, e := range batch {
		if _, had := r.byID[e.id]; !had {
			r.byID[e.id] = e.data
			added++
		}
	}
	r.mu.Unlock()
	r.stats.RegistrationsNew.Add(int64(added))
	return len(batch), nil
}

// admit counts one registration attempt and decides it: the format must
// have parsed (err is the parse's verdict) and, with lineages attached, must
// join its lineage.
func (r *Registry) admit(f *meta.Format, err error) (*meta.Format, error) {
	r.stats.Registrations.Add(1)
	if err == nil {
		if lr := r.lineages.Load(); lr != nil {
			_, err = lr.Register(f.Name, f, "fmtserver")
		}
	}
	if err != nil {
		r.stats.RegisterErrors.Add(1)
		return nil, err
	}
	return f, nil
}

// RegisterCanonical validates canonical format bytes and stores them,
// returning the format's ID.  Registration is idempotent.  On a registry
// with lineages attached the format must also satisfy its lineage's
// compatibility policy — a violation rejects the registration with a
// *registry.CompatError and stores nothing.
func (r *Registry) RegisterCanonical(data []byte) (meta.FormatID, error) {
	f, err := r.admit(meta.ParseCanonical(data))
	if err != nil {
		return 0, err
	}
	id := f.ID()
	r.mu.Lock()
	_, had := r.byID[id]
	if !had {
		r.byID[id] = append([]byte(nil), data...)
		r.stats.RegistrationsNew.Add(1)
	}
	r.mu.Unlock()
	// Write-through outside the lock: the store dedups by content hash, so
	// a racing duplicate registration costs a lookup, not a second write.
	if !had {
		if bsp := r.blobs.Load(); bsp != nil {
			(*bsp).PutFormat(f)
		}
	}
	return id, nil
}

// Register stores a format, returning its ID.
func (r *Registry) Register(f *meta.Format) (meta.FormatID, error) {
	return r.RegisterCanonical(f.Canonical())
}

// LookupCanonical returns the canonical bytes for an ID.
func (r *Registry) LookupCanonical(id meta.FormatID) ([]byte, bool) {
	r.stats.Lookups.Add(1)
	r.mu.RLock()
	defer r.mu.RUnlock()
	data, ok := r.byID[id]
	if !ok {
		r.stats.LookupMisses.Add(1)
	}
	return data, ok
}

// ResolveFormat implements pbio.FormatResolver for in-process use.
func (r *Registry) ResolveFormat(id meta.FormatID) (*meta.Format, error) {
	data, ok := r.LookupCanonical(id)
	if !ok {
		return nil, fmt.Errorf("fmtserver: format %s not registered", id)
	}
	return meta.ParseCanonical(data)
}

// IDs returns all registered format IDs, sorted.
func (r *Registry) IDs() []meta.FormatID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]meta.FormatID, 0, len(r.byID))
	for id := range r.byID {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Wire protocol: length-prefixed frames both ways.
//
//	request:  u32 length | u8 op     | payload
//	response: u32 length | u8 status | payload
//
// ops: 1 register (payload = canonical bytes; ok payload = 8-byte ID)
//
//	2 lookup          (payload = 8-byte ID; ok payload = canonical bytes)
//	3 lineage list    (payload = lineage name;
//	                   ok payload = u8 policy | u32 n | n x u64 version IDs)
//	4 lineage resolve (payload = u32 version | lineage name;
//	                   ok payload = canonical bytes of that version)
//	5 lineage policy  (payload = u8 policy | lineage name; ok payload empty)
//
// status: 0 ok, 1 not found, 2 error (payload = message text).  A not-found
// payload carries a reason tag — "lineage <name>" or "version <n>" — so
// clients can raise the matching typed error instead of a transport fault;
// an empty payload is a plain format-ID miss.  A register rejected by the
// lineage's compatibility policy answers status 2 with payload
// "compat <json>", the JSON being the *registry.CompatError (policy,
// versions, and every offending field).
const (
	opRegister       = 1
	opLookup         = 2
	opLineageList    = 3
	opLineageResolve = 4
	opLineagePolicy  = 5

	statusOK       = 0
	statusNotFound = 1
	statusError    = 2

	maxFrame = 1 << 20
)

// compatTag prefixes a JSON-encoded CompatError in a statusError payload.
const compatTag = "compat "

// Server serves a Registry over TCP.
type Server struct {
	Registry *Registry

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	wg       sync.WaitGroup
	closed   bool
}

// NewServer creates a server over a (possibly shared) registry.
func NewServer(reg *Registry) *Server {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Server{Registry: reg, conns: make(map[net.Conn]bool)}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = ln
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

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	rd := bufio.NewReader(conn)
	for {
		op, payload, err := readFrame(rd)
		if err != nil {
			return
		}
		switch op {
		case opRegister:
			id, err := s.Registry.RegisterCanonical(payload)
			if err != nil {
				var ce *registry.CompatError
				if errors.As(err, &ce) {
					if body, jerr := json.Marshal(ce); jerr == nil {
						writeFrame(conn, statusError, append([]byte(compatTag), body...))
						continue
					}
				}
				writeFrame(conn, statusError, []byte(err.Error()))
				continue
			}
			var idb [8]byte
			binary.BigEndian.PutUint64(idb[:], uint64(id))
			writeFrame(conn, statusOK, idb[:])
		case opLineageList, opLineageResolve, opLineagePolicy:
			s.serveLineageOp(conn, op, payload)
		case opLookup:
			if len(payload) != 8 {
				writeFrame(conn, statusError, []byte("lookup payload must be 8 bytes"))
				continue
			}
			id := meta.FormatID(binary.BigEndian.Uint64(payload))
			data, ok := s.Registry.LookupCanonical(id)
			if !ok {
				writeFrame(conn, statusNotFound, nil)
				continue
			}
			writeFrame(conn, statusOK, data)
		default:
			writeFrame(conn, statusError, []byte(fmt.Sprintf("unknown op %d", op)))
		}
	}
}

// serveLineageOp answers the three lineage ops.  Misses answer with tagged
// not-found payloads ("lineage <name>", "version <n>") so the client can
// surface registry.ErrUnknownLineage / registry.ErrUnknownVersion rather
// than a transport fault.
func (s *Server) serveLineageOp(conn net.Conn, op byte, payload []byte) {
	lr := s.Registry.Lineages()
	if lr == nil {
		writeFrame(conn, statusError, []byte("no schema registry attached"))
		return
	}
	switch op {
	case opLineageList:
		l, err := lr.Lineage(string(payload))
		if err != nil {
			writeFrame(conn, statusNotFound, []byte("lineage "+string(payload)))
			return
		}
		vs := l.Versions()
		out := make([]byte, 5, 5+8*len(vs))
		out[0] = byte(l.Policy())
		binary.BigEndian.PutUint32(out[1:5], uint32(len(vs)))
		for _, v := range vs {
			out = binary.BigEndian.AppendUint64(out, uint64(v.ID))
		}
		writeFrame(conn, statusOK, out)
	case opLineageResolve:
		if len(payload) < 5 {
			writeFrame(conn, statusError, []byte("lineage resolve payload too short"))
			return
		}
		n := int(binary.BigEndian.Uint32(payload[:4]))
		name := string(payload[4:])
		l, err := lr.Lineage(name)
		if err != nil {
			writeFrame(conn, statusNotFound, []byte("lineage "+name))
			return
		}
		v, err := l.Resolve(n)
		if err != nil {
			writeFrame(conn, statusNotFound, []byte("version "+strconv.Itoa(n)))
			return
		}
		writeFrame(conn, statusOK, v.Format.Canonical())
	case opLineagePolicy:
		if len(payload) < 2 {
			writeFrame(conn, statusError, []byte("lineage policy payload too short"))
			return
		}
		p := registry.Policy(payload[0])
		if p < registry.PolicyNone || p > registry.PolicyFullTransitive {
			writeFrame(conn, statusError, []byte("unknown policy"))
			return
		}
		if err := lr.SetPolicy(string(payload[1:]), p); err != nil {
			writeFrame(conn, statusError, []byte(err.Error()))
			return
		}
		writeFrame(conn, statusOK, nil)
	}
}

// Close stops the server and waits for connection handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// writeFrame frames payload in one pooled buffer and hands it to w in a
// single Write: one syscall and one segment per frame.
func writeFrame(w io.Writer, tag byte, payload []byte) error {
	buf := pbio.GetBuffer()
	defer buf.Release()
	buf.B = binary.BigEndian.AppendUint32(buf.B, uint32(len(payload)+1))
	buf.B = append(append(buf.B, tag), payload...)
	_, err := w.Write(buf.B)
	return err
}

func readFrame(r io.Reader) (tag byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("fmtserver: frame of %d bytes out of range", n)
	}
	payload = make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// Client talks to a format server.  It caches resolved formats, keeps one
// connection open, and reconnects transparently after failures.  Client
// implements pbio.FormatResolver.
type Client struct {
	addr string

	mu    sync.Mutex
	conn  net.Conn
	rd    *bufio.Reader // conn's reader, rebuilt with it on reconnect
	cache map[meta.FormatID]*meta.Format
}

// NewClient creates a client for the server at addr.  No connection is made
// until the first call.
func NewClient(addr string) *Client {
	return &Client{addr: addr, cache: make(map[meta.FormatID]*meta.Format)}
}

// ErrNotFound is returned when the server does not know a format ID.
var ErrNotFound = errors.New("fmtserver: format not found")

// notFoundErr maps a tagged not-found payload to the matching typed error:
// "lineage <name>" and "version <n>" wrap the registry's sentinel errors so
// callers can tell a directory miss from a transport fault; anything else
// is a plain format miss.
func notFoundErr(payload []byte) error {
	reason, rest, _ := strings.Cut(string(payload), " ")
	switch reason {
	case "lineage":
		return fmt.Errorf("fmtserver: %w: %s", registry.ErrUnknownLineage, rest)
	case "version":
		return fmt.Errorf("fmtserver: %w: %s", registry.ErrUnknownVersion, rest)
	}
	return ErrNotFound
}

// statusErr maps a statusError payload to an error, decoding a tagged
// compatibility rejection back into the typed *registry.CompatError it was
// on the server.
func statusErr(what string, payload []byte) error {
	if body, ok := strings.CutPrefix(string(payload), compatTag); ok {
		var ce registry.CompatError
		if err := json.Unmarshal([]byte(body), &ce); err == nil {
			if p, err := registry.ParsePolicy(ce.PolicyName); err == nil {
				ce.Policy = p
			}
			return &ce
		}
	}
	return fmt.Errorf("fmtserver: %s: %s", what, payload)
}

func (c *Client) roundTrip(op byte, payload []byte) (byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		if c.conn == nil {
			conn, err := net.Dial("tcp", c.addr)
			if err != nil {
				return 0, nil, fmt.Errorf("fmtserver: connecting to %s: %w", c.addr, err)
			}
			c.conn, c.rd = conn, bufio.NewReader(conn)
		}
		if err := writeFrame(c.conn, op, payload); err == nil {
			status, resp, err := readFrame(c.rd)
			if err == nil {
				return status, resp, nil
			}
		}
		// Connection went bad; drop it and retry once.
		c.conn.Close()
		c.conn, c.rd = nil, nil
	}
	return 0, nil, fmt.Errorf("fmtserver: lost connection to %s", c.addr)
}

// Register uploads a format and returns its server-assigned (content
// derived) ID.
func (c *Client) Register(f *meta.Format) (meta.FormatID, error) {
	status, resp, err := c.roundTrip(opRegister, f.Canonical())
	if err != nil {
		return 0, err
	}
	switch status {
	case statusOK:
		if len(resp) != 8 {
			return 0, fmt.Errorf("fmtserver: malformed register response")
		}
		id := meta.FormatID(binary.BigEndian.Uint64(resp))
		c.mu.Lock()
		c.cache[id] = f
		c.mu.Unlock()
		return id, nil
	case statusError:
		return 0, statusErr("register rejected", resp)
	default:
		return 0, fmt.Errorf("fmtserver: unexpected register status %d", status)
	}
}

// LineageInfo is a directory lineage as reported by the server: the
// compatibility policy and every version's format ID, oldest first.
type LineageInfo struct {
	Name       string
	Policy     registry.Policy
	VersionIDs []meta.FormatID
}

// Lineage fetches a lineage's policy and version history.  An unknown
// lineage fails with an error wrapping registry.ErrUnknownLineage —
// distinguishable from a transport fault.
func (c *Client) Lineage(name string) (LineageInfo, error) {
	status, resp, err := c.roundTrip(opLineageList, []byte(name))
	if err != nil {
		return LineageInfo{}, err
	}
	switch status {
	case statusOK:
		if len(resp) < 5 {
			return LineageInfo{}, fmt.Errorf("fmtserver: malformed lineage response")
		}
		info := LineageInfo{Name: name, Policy: registry.Policy(resp[0])}
		n := int(binary.BigEndian.Uint32(resp[1:5]))
		if len(resp) != 5+8*n {
			return LineageInfo{}, fmt.Errorf("fmtserver: lineage response claims %d versions in %d bytes", n, len(resp))
		}
		for i := 0; i < n; i++ {
			info.VersionIDs = append(info.VersionIDs,
				meta.FormatID(binary.BigEndian.Uint64(resp[5+8*i:])))
		}
		return info, nil
	case statusNotFound:
		return LineageInfo{}, notFoundErr(resp)
	case statusError:
		return LineageInfo{}, statusErr("lineage lookup failed", resp)
	default:
		return LineageInfo{}, fmt.Errorf("fmtserver: unexpected lineage status %d", status)
	}
}

// ResolveVersion fetches the format at one lineage version (1-based).  An
// unknown lineage or version fails with the matching typed error.
func (c *Client) ResolveVersion(name string, n int) (*meta.Format, error) {
	payload := make([]byte, 4, 4+len(name))
	binary.BigEndian.PutUint32(payload, uint32(n))
	payload = append(payload, name...)
	status, resp, err := c.roundTrip(opLineageResolve, payload)
	if err != nil {
		return nil, err
	}
	switch status {
	case statusOK:
		return meta.ParseCanonical(resp)
	case statusNotFound:
		return nil, notFoundErr(resp)
	case statusError:
		return nil, statusErr("lineage resolve failed", resp)
	default:
		return nil, fmt.Errorf("fmtserver: unexpected resolve status %d", status)
	}
}

// SetPolicy sets a lineage's compatibility policy on the server, creating
// the lineage if it does not exist yet.  Tightening fails if the existing
// history already violates the new policy.
func (c *Client) SetPolicy(name string, p registry.Policy) error {
	payload := make([]byte, 1, 1+len(name))
	payload[0] = byte(p)
	payload = append(payload, name...)
	status, resp, err := c.roundTrip(opLineagePolicy, payload)
	if err != nil {
		return err
	}
	switch status {
	case statusOK:
		return nil
	case statusError:
		return statusErr("policy rejected", resp)
	default:
		return fmt.Errorf("fmtserver: unexpected policy status %d", status)
	}
}

// ResolveFormat fetches the metadata for an ID, from cache when possible.
func (c *Client) ResolveFormat(id meta.FormatID) (*meta.Format, error) {
	c.mu.Lock()
	if f, ok := c.cache[id]; ok {
		c.mu.Unlock()
		return f, nil
	}
	c.mu.Unlock()

	var idb [8]byte
	binary.BigEndian.PutUint64(idb[:], uint64(id))
	status, resp, err := c.roundTrip(opLookup, idb[:])
	if err != nil {
		return nil, err
	}
	switch status {
	case statusOK:
		f, err := meta.ParseCanonical(resp)
		if err != nil {
			return nil, err
		}
		if f.ID() != id {
			return nil, fmt.Errorf("fmtserver: server returned format %s for %s", f.ID(), id)
		}
		c.mu.Lock()
		c.cache[id] = f
		c.mu.Unlock()
		return f, nil
	case statusNotFound:
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	case statusError:
		return nil, fmt.Errorf("fmtserver: lookup failed: %s", resp)
	default:
		return nil, fmt.Errorf("fmtserver: unexpected lookup status %d", status)
	}
}

// Close tears down the client connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn, c.rd = nil, nil
		return err
	}
	return nil
}
