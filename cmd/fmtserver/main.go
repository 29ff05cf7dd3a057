// Command fmtserver runs a stand-alone format server: the directory service
// that maps content-derived format IDs to format metadata, enabling the
// out-of-band discovery mode (see internal/fmtserver for the protocol).
//
// With -metrics, an HTTP endpoint serves the registry's registration and
// resolution counters at /metrics (plain text, or JSON with ?format=json).
//
// With -policy, the server tracks format lineages: registrations of the
// same format name form a versioned history checked against the named
// default compatibility policy, queryable over the lineage wire ops, and
// (with -metrics) served at /.well-known/xmit-lineages for discovery.
//
// With -store, the catalogue persists: registered formats are written
// through to the store's format pack and replayed from local disk
// at startup, so a restarted server answers every pre-restart lookup
// without a single re-registration; with -policy too, lineage histories
// and policy decisions are journaled and recovered the same way.
//
// The server's body is daemon.StartFmtserver; SIGINT or SIGTERM stops it
// cleanly, snapshotting the lineages into the store.
//
// Usage:
//
//	fmtserver -addr 127.0.0.1:8701 -metrics 127.0.0.1:8702 [-policy backward] [-store /var/lib/fmtserver]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"github.com/open-metadata/xmit/internal/daemon"
	"github.com/open-metadata/xmit/internal/obs"
)

func main() {
	var cfg daemon.FmtserverConfig
	flag.StringVar(&cfg.Addr, "addr", "127.0.0.1:8701", "listen address")
	flag.StringVar(&cfg.Metrics, "metrics", "", "serve /metrics on this HTTP address (empty: disabled)")
	flag.StringVar(&cfg.Policy, "policy", "", "track format lineages with this default compatibility policy (none, backward, forward, full, *_transitive; empty: no lineages)")
	flag.StringVar(&cfg.Store, "store", "", "persist the format catalogue (and lineages, with -policy) in this directory")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	metrics := obs.Default()
	d, err := daemon.StartFmtserver(cfg, metrics)
	if err != nil {
		log.Fatalf("fmtserver: %v", err)
	}
	obs.PublishExpvar("fmtserver", metrics)
	<-ctx.Done()
	stop()
	fmt.Println("fmtserver: shutting down")
	if err := d.Close(); err != nil {
		log.Fatalf("fmtserver: %v", err)
	}
}
