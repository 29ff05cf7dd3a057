// Command echod runs the event-channel broker daemon: named pub/sub
// channels over TCP with per-subscriber backpressure policies, in-band or
// format-server metadata distribution, and derived channels with
// server-side filters (see internal/echan for the protocol).
//
// With -metrics, an HTTP endpoint serves per-channel depth gauges, fan-out
// latency histograms, and drop counters at /metrics (plain text, or JSON
// with ?format=json).  With -fmtserver, formats published on any channel
// are registered with a format server, and unknown format IDs arriving
// from out-of-band publishers are resolved from it.  With -unix, the
// broker also listens on a unix-domain socket, the same-host fast lane:
// clients select it by giving a path instead of host:port.
//
// With -peer, the broker joins a mesh of echod processes: each channel is
// homed on one broker and mirrored over inter-broker links, so a
// subscriber anywhere sees a channel published anywhere.  Peers are broker
// addresses or http(s) URLs of a peer's well-known mesh document, which
// -mesh-listen serves.
//
// With -policy, the broker attaches a schema registry: formats announced
// on a channel form a versioned lineage, each evolution is checked at
// publish time against the default compatibility policy (none, backward,
// forward, full, or a *_transitive variant), and a subscriber may pin a
// lineage version ("SUB ch version=N") to keep decoding that view while
// publishers evolve the format.  The LINEAGE and POLICY verbs inspect and
// adjust lineages, and the catalogue, canonical format bodies included, is
// served at /.well-known/xmit-lineages on -metrics and -mesh-listen.  In a
// mesh, lineages gossip between peers (LINEAGES on the HELLO rounds) and
// every policy decision is made at the channel's home, so a rejection
// reaches a remote publisher as the same typed compat error.  A pinned
// subscriber may attach through any broker: a SUB on a broker that is not
// the home pulls the lineage from the home first.
//
// With -store (requires -policy), registry state survives restarts: every
// lineage append and policy change is synced to the directory (format
// bodies in one pack, decisions in a journal, snapshotted on shutdown),
// and a restarted broker recovers its lineages, version numbers and policy
// decisions from local disk before it serves.  Fetched discovery documents
// are kept there too.
//
// The broker's body is daemon.StartEchod; SIGINT or SIGTERM stops it
// cleanly.
//
// Usage:
//
//	echod -addr 127.0.0.1:8801 -metrics 127.0.0.1:8802 [-fmtserver 127.0.0.1:8701] [-queue 64]
//	      [-unix /run/echod.sock] [-policy backward] [-store /var/lib/echod]
//	      [-peer host2:8801,http://host3:8803] [-mesh-listen 127.0.0.1:8803] [-advertise host1:8801] [-retain N]
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
	var cfg daemon.EchodConfig
	flag.StringVar(&cfg.Addr, "addr", "127.0.0.1:8801", "listen address")
	flag.StringVar(&cfg.Unix, "unix", "", "also listen on this unix socket path (same-host fast lane)")
	flag.StringVar(&cfg.Metrics, "metrics", "", "serve /metrics on this HTTP address (empty: disabled)")
	flag.StringVar(&cfg.Fmtserver, "fmtserver", "", "format server address for out-of-band metadata (empty: in-band only)")
	flag.IntVar(&cfg.Queue, "queue", 64, "default per-subscriber queue length")
	flag.StringVar(&cfg.Peer, "peer", "", "comma-separated peer brokers: host:port, or http(s) URL of a peer's mesh document")
	flag.StringVar(&cfg.MeshListen, "mesh-listen", "", "serve this broker's mesh document on this HTTP address (enables federation)")
	flag.StringVar(&cfg.Advertise, "advertise", "", "mesh address peers dial this broker on (default: the bound -addr)")
	flag.IntVar(&cfg.Retain, "retain", -1, "events retained per channel for link resume (-1: 1024 when federated, else 0)")
	flag.StringVar(&cfg.Policy, "policy", "", "attach a schema registry with this default compatibility policy (none, backward, forward, full, *_transitive; empty: no registry)")
	flag.StringVar(&cfg.Store, "store", "", "persist registry state and fetched documents in this directory (requires -policy; survives restarts)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	metrics := obs.Default()
	d, err := daemon.StartEchod(cfg, metrics)
	if err != nil {
		log.Fatalf("echod: %v", err)
	}
	obs.PublishExpvar("echod", metrics)
	<-ctx.Done()
	stop()
	fmt.Println("echod: shutting down")
	if err := d.Close(); err != nil {
		log.Fatalf("echod: %v", err)
	}
}
