// Package daemon holds the repository's three servers as libraries: echod,
// the event-channel broker; fmtserver, the format server; and mdserver, the
// HTTP host of XML metadata documents (the role Apache plays in the paper).
//
// Each daemon has a Config whose fields are its command's flags, one field
// per flag, and a Start that takes the obs.Registry it reports into.  Start
// binds every listener before it returns, so a busy port is an error from
// Start, not a crash after the daemon is already serving.  The handle's
// Close stops what Start began and, for a daemon with a store, snapshots
// the schema registry before it closes the store.  The commands in cmd/
// parse flags, call Start with obs.Default and wait for a signal; tests run
// several daemons in one process, each on its own registry.
package daemon

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"

	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/registry"
	"github.com/open-metadata/xmit/internal/store"
)

// logf prints one line of a daemon's operator log on stdout.
func logf(daemon, format string, args ...any) {
	fmt.Printf(daemon+": "+format+"\n", args...)
}

// httpServer is one bound HTTP listener and the server answering on it.
type httpServer struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

// listenHTTP binds addr before it returns and serves routes, a path →
// handler table in which nil handlers are left out, until close.  An
// empty addr (the flag was not set) serves nothing and returns nil.
func listenHTTP(daemon, addr string, routes map[string]http.Handler) (*httpServer, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	var paths []string
	for path, h := range routes {
		if h != nil {
			mux.Handle(path, h)
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	s := &httpServer{srv: &http.Server{Handler: mux}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	logf(daemon, "http://%s serves %s", s.addr, strings.Join(paths, " "))
	return s, nil
}

// httpAddr returns the address s is bound to, or "" for a listener that
// was not configured.
func httpAddr(s *httpServer) string {
	if s == nil {
		return ""
	}
	return s.addr
}

// close shuts the listener and its connections and waits for the server
// to stop.  A nil server (the listener was not configured) is a no-op.
func (s *httpServer) close() error {
	if s == nil {
		return nil
	}
	err := s.srv.Close()
	<-s.done
	return err
}

// schemaStore is a daemon's schema registry (with -policy) and the store
// that persists it (with -store).  Either may be absent: fmtserver keeps a
// format catalogue in a store without a registry.
type schemaStore struct {
	reg *registry.Registry
	st  *store.Store
}

// openSchemaStore builds the registry and opens the store, recovering the
// persisted lineage state into the registry before the daemon serves
// anything; from then on every append and policy change is journaled.
func openSchemaStore(daemon, policy, dir string, metrics *obs.Registry) (*schemaStore, error) {
	s := &schemaStore{}
	if policy != "" {
		p, err := registry.ParsePolicy(policy)
		if err != nil {
			return nil, err
		}
		s.reg = registry.New(registry.WithDefaultPolicy(p))
	}
	if dir == "" {
		return s, nil
	}
	st, err := store.Open(dir, store.WithMetricsRegistry(metrics))
	if err != nil {
		return nil, err
	}
	s.st = st
	if s.reg == nil {
		return s, nil
	}
	rs, err := st.PersistRegistry(s.reg)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("recovering store %s: %w", dir, err)
	}
	logf(daemon, "store %s: recovered %d lineages, %d versions (%d snapshot, %d journal records; torn journal tail %t, snapshot fallback %t)",
		dir, rs.Lineages, rs.Versions, rs.SnapshotVersions, rs.JournalRecords, rs.TruncatedTail, rs.SnapshotFallback)
	return s, nil
}

// close snapshots the registry, compacting the journal so the next start
// recovers from one document instead of a long replay, and closes the
// store.
func (s *schemaStore) close() error {
	if s == nil || s.st == nil {
		return nil
	}
	var err error
	if s.reg != nil {
		if err = s.st.Snapshot(s.reg); err != nil {
			err = fmt.Errorf("snapshotting store: %w", err)
		}
	}
	return errors.Join(err, s.st.Close())
}
