// Command echod runs the event-channel broker daemon: named pub/sub
// channels over TCP with per-subscriber backpressure policies, in-band or
// format-server metadata distribution, and derived channels with
// server-side filters (see internal/echan for the protocol).
//
// With -metrics, an HTTP endpoint serves per-channel depth gauges, fan-out
// latency histograms, and drop counters at /metrics (plain text, or JSON
// with ?format=json).  With -fmtserver, formats published on any channel
// are registered with a format server, and unknown format IDs arriving
// from out-of-band publishers are resolved from it.
//
// With -peer, the broker federates: it joins a mesh of echod processes
// where each channel is homed on one broker and other brokers mirror it
// over inter-broker links, so a subscriber anywhere sees a channel
// published anywhere.  Peers are given as broker addresses or as http(s)
// URLs of another broker's well-known mesh document; -mesh-listen serves
// this broker's own document for others to bootstrap from.
//
// With -unix, the broker also listens on a unix-domain socket — the
// same-host fast lane: local subscribers dialing the socket path receive
// the broker's vectored writes without the TCP stack in between.  Clients
// select the lane by address form alone (a path instead of host:port).
//
// With -policy, the broker attaches a schema registry: formats announced
// on a channel form a versioned lineage, evolutions are checked against
// the named default compatibility policy (none, backward, forward, full,
// or a *_transitive variant) at publish time, and subscribers may pin a
// lineage version at SUB time ("SUB ch version=N") to keep decoding that
// view while publishers evolve the format.  The LINEAGE and POLICY control
// verbs inspect and adjust lineages; with -metrics the lineage catalogue
// is also served at /.well-known/xmit-lineages for discovery, canonical
// format bodies included.
//
// On a federated broker the registry itself federates: lineage state
// gossips between peers (the LINEAGES control verb ships the well-known
// document incrementally on the HELLO rounds), every policy decision
// resolves at the channel's home broker — a registration admitted anywhere
// is admitted everywhere, and a rejection travels back to the remote
// publisher as the same typed compat error — and a version-pinned
// subscriber can attach or reattach through any broker in the mesh: the
// negotiated announcement replays from gossiped lineage state and
// "after=<gen>" resume positions carry across brokers because proxies
// re-publish under home generation numbers.  An http(s) -peer bootstrap
// also adopts the peer's lineage document up front.
//
// With -store (requires -policy), registry state persists across restarts:
// every lineage append and policy change is journaled to the directory
// (format bodies in a content-addressed blob store, decisions in an
// append-only journal with periodic snapshots), and a restarted broker
// recovers its full lineage histories, version numbering, and policy
// decisions from local disk before serving — no peer gossip or remote
// fetch needed, and the same incompatible head is re-rejected with the
// same typed compat error.  Fetched discovery documents are persisted
// too, so cold-start warming skips remote fetches entirely.
//
// Usage:
//
//	echod -addr 127.0.0.1:8801 -metrics 127.0.0.1:8802 [-fmtserver 127.0.0.1:8701] [-queue 64]
//	      [-unix /run/echod.sock] [-policy backward] [-store /var/lib/echod]
//	      [-peer host2:8801,http://host3:8803] [-mesh-listen 127.0.0.1:8803] [-advertise host1:8801] [-retain N]
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/echan"
	"github.com/open-metadata/xmit/internal/fmtserver"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/registry"
	"github.com/open-metadata/xmit/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8801", "listen address")
	unixPath := flag.String("unix", "", "also listen on this unix socket path (same-host fast lane)")
	metricsAddr := flag.String("metrics", "", "serve /metrics on this HTTP address (empty: disabled)")
	fmtsrvAddr := flag.String("fmtserver", "", "format server address for out-of-band metadata (empty: in-band only)")
	queue := flag.Int("queue", 64, "default per-subscriber queue length")
	peers := flag.String("peer", "", "comma-separated peer brokers: host:port, or http(s) URL of a peer's mesh document")
	meshListen := flag.String("mesh-listen", "", "serve this broker's mesh document on this HTTP address (enables federation)")
	advertise := flag.String("advertise", "", "mesh address peers dial this broker on (default: the bound -addr)")
	retain := flag.Int("retain", -1, "events retained per channel for link resume (-1: 1024 when federated, else 0)")
	policy := flag.String("policy", "", "attach a schema registry with this default compatibility policy (none, backward, forward, full, *_transitive; empty: no registry)")
	storeDir := flag.String("store", "", "persist registry state and fetched documents in this directory (requires -policy; survives restarts)")
	flag.Parse()

	federated := *peers != "" || *meshListen != "" || *advertise != ""
	if *retain < 0 {
		if federated {
			*retain = 1024
		} else {
			*retain = 0
		}
	}

	metrics := obs.Default()
	obs.PublishExpvar("echod", metrics)

	opts := []echan.BrokerOption{
		echan.WithRegistry(metrics),
		echan.WithDefaultQueue(*queue),
	}
	if *retain > 0 {
		opts = append(opts, echan.WithDefaultRetain(*retain))
	}
	if *fmtsrvAddr != "" {
		fc := fmtserver.NewClient(*fmtsrvAddr)
		defer fc.Close()
		opts = append(opts,
			echan.WithContext(pbio.NewContext(pbio.WithResolver(fc))),
			echan.WithFormatRegistrar(func(f *meta.Format) error {
				_, err := fc.Register(f)
				return err
			}),
		)
	}
	var schemaReg *registry.Registry
	if *policy != "" {
		p, err := registry.ParsePolicy(*policy)
		if err != nil {
			log.Fatalf("echod: %v", err)
		}
		schemaReg = registry.New(registry.WithDefaultPolicy(p))
		opts = append(opts, echan.WithSchemaRegistry(schemaReg))
	}
	var st *store.Store
	if *storeDir != "" {
		if schemaReg == nil {
			log.Fatalf("echod: -store requires -policy (the store persists registry state)")
		}
		var err error
		st, err = store.Open(*storeDir, store.WithMetricsRegistry(metrics))
		if err != nil {
			log.Fatalf("echod: %v", err)
		}
		// Recover persisted lineage state before the broker serves anything,
		// then journal every subsequent append and policy change.
		rs, err := st.PersistRegistry(schemaReg)
		if err != nil {
			log.Fatalf("echod: recovering store %s: %v", *storeDir, err)
		}
		fmt.Printf("echod: store %s: recovered %d lineages, %d versions (%d snapshot, %d journal records", *storeDir, rs.Lineages, rs.Versions, rs.SnapshotVersions, rs.JournalRecords)
		if rs.TruncatedTail {
			fmt.Printf(", torn journal tail truncated")
		}
		if rs.SnapshotFallback {
			fmt.Printf(", snapshot fallback")
		}
		fmt.Println(")")
	}
	broker := echan.NewBroker(opts...)

	srv := echan.NewServer(broker)
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("echod: %v", err)
	}
	fmt.Printf("echod: listening on %s\n", bound)
	if *unixPath != "" {
		if _, err := srv.ListenUnix(*unixPath); err != nil {
			log.Fatalf("echod: %v", err)
		}
		fmt.Printf("echod: unix fast lane on %s\n", *unixPath)
	}
	if *fmtsrvAddr != "" {
		fmt.Printf("echod: registering formats with %s\n", *fmtsrvAddr)
	}
	if schemaReg != nil {
		fmt.Printf("echod: schema registry attached (default policy %s)\n", *policy)
	}

	// The lineage catalogue is served with full canonical format bodies, so
	// a peer (or a directory server) fetching the document can adopt the
	// formats themselves, not just the version IDs — the same shape the
	// mesh gossips over LINEAGES.
	lineageHandler := func() http.Handler {
		return discovery.LineageHandler(func() []discovery.LineageDoc {
			return discovery.SnapshotLineagesFull(schemaReg)
		})
	}

	var mesh *echan.Mesh
	if federated {
		self := *advertise
		if self == "" {
			self = bound
		}
		mesh = echan.NewMesh(broker, self)
		var ropts []discovery.RepoOption
		if st != nil {
			ropts = append(ropts, discovery.WithDocStore(st))
		}
		repo := discovery.NewRepository(ropts...)
		if st != nil {
			if n := repo.WarmFromStore(); n > 0 {
				fmt.Printf("echod: warmed %d discovery documents from store\n", n)
			}
		}
		for _, p := range strings.Split(*peers, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			if strings.HasPrefix(p, "http://") || strings.HasPrefix(p, "https://") {
				doc, err := repo.FetchMesh(p)
				if err != nil {
					log.Fatalf("echod: bootstrapping mesh from %s: %v", p, err)
				}
				mesh.AddPeer(doc.Self)
				for _, a := range doc.Peers {
					mesh.AddPeer(a)
				}
				// A fresh broker joining an established mesh adopts the
				// peer's lineage state up front (best-effort: gossip
				// converges it regardless), so pinned subscribers attaching
				// here resolve views before the first HELLO round lands.
				if schemaReg != nil {
					u := strings.TrimSuffix(strings.TrimSuffix(p, discovery.WellKnownMeshPath), "/") + discovery.WellKnownLineagePath
					if docs, err := repo.FetchLineages(u); err == nil {
						if n, err := discovery.MergeLineages(schemaReg, docs, doc.Self); err == nil && n > 0 {
							fmt.Printf("echod: adopted %d lineage versions from %s\n", n, u)
						}
					}
				}
				continue
			}
			mesh.AddPeer(p)
		}
		srv.AttachMesh(mesh)
		mesh.Start()
		fmt.Printf("echod: federated as %s (%d peers, retain %d)\n", self, len(mesh.Peers()), *retain)
		if *meshListen != "" {
			mux := http.NewServeMux()
			mux.Handle(discovery.WellKnownMeshPath, discovery.MeshHandler(func() discovery.MeshDoc {
				return discovery.MeshDoc{Self: mesh.Self(), Peers: mesh.Peers()}
			}))
			if schemaReg != nil {
				// The mesh bootstrap endpoint also serves the lineages, so
				// joining brokers reach both documents through one address.
				mux.Handle(discovery.WellKnownLineagePath, lineageHandler())
			}
			go func() {
				fmt.Printf("echod: mesh document on http://%s%s\n", *meshListen, discovery.WellKnownMeshPath)
				log.Fatal(http.ListenAndServe(*meshListen, mux))
			}()
		}
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler())
		if schemaReg != nil {
			mux.Handle(discovery.WellKnownLineagePath, lineageHandler())
			fmt.Printf("echod: lineages on http://%s%s\n", *metricsAddr, discovery.WellKnownLineagePath)
		}
		go func() {
			fmt.Printf("echod: metrics on http://%s/metrics\n", *metricsAddr)
			log.Fatal(http.ListenAndServe(*metricsAddr, mux))
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("echod: shutting down")
	if mesh != nil {
		mesh.Close()
	}
	srv.Close()
	broker.Close()
	if st != nil {
		// Snapshot the registry and compact the journal so the next start
		// recovers from one document instead of a long replay.
		if err := st.Snapshot(schemaReg); err != nil {
			log.Printf("echod: snapshotting store: %v", err)
		}
		if err := st.Close(); err != nil {
			log.Printf("echod: closing store: %v", err)
		}
	}
}
