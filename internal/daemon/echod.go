package daemon

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/echan"
	"github.com/open-metadata/xmit/internal/fmtserver"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
)

// EchodConfig is echod's command line, one field per flag (see cmd/echod
// for what each does).
type EchodConfig struct {
	Addr       string // -addr: control listen address
	Unix       string // -unix: also listen on this unix socket path
	Metrics    string // -metrics: serve /metrics and the lineages here ("": off)
	Fmtserver  string // -fmtserver: format server for out-of-band metadata
	Queue      int    // -queue: default per-subscriber queue length
	Peer       string // -peer: comma-separated host:port or http(s) mesh-document URLs
	MeshListen string // -mesh-listen: serve the mesh document here (federates)
	Advertise  string // -advertise: mesh address peers dial (default: the bound Addr)
	Retain     int    // -retain: events kept per channel; -1: 1024 when federated, else 0
	Policy     string // -policy: schema registry's default compatibility policy ("": none)
	Store      string // -store: persist registry state here (requires Policy)
}

// Echod is a running broker.
type Echod struct {
	addr        string
	fc          *fmtserver.Client
	schema      *schemaStore
	broker      *echan.Broker
	srv         *echan.Server
	mesh        *echan.Mesh
	meshHTTP    *httpServer
	metricsHTTP *httpServer
}

// StartEchod recovers the schema registry from its store, starts the
// broker and every listener cfg names, and joins the mesh when cfg
// federates.  On error nothing is left running.
func StartEchod(cfg EchodConfig, metrics *obs.Registry) (_ *Echod, err error) {
	if cfg.Store != "" && cfg.Policy == "" {
		return nil, errors.New("-store requires -policy (the store persists registry state)")
	}
	d := &Echod{}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	federated := cfg.Peer != "" || cfg.MeshListen != "" || cfg.Advertise != ""
	retain := cfg.Retain // below 0 retains nothing, as WithDefaultRetain reads it
	if retain < 0 && federated {
		retain = 1024
	}
	opts := []echan.BrokerOption{
		echan.WithRegistry(metrics),
		echan.WithDefaultQueue(cfg.Queue),
		echan.WithDefaultRetain(retain),
	}
	if cfg.Fmtserver != "" {
		fc := fmtserver.NewClient(cfg.Fmtserver)
		d.fc = fc
		opts = append(opts,
			echan.WithContext(pbio.NewContext(pbio.WithResolver(fc))),
			echan.WithFormatRegistrar(func(f *meta.Format) error {
				_, err := fc.Register(f)
				return err
			}),
		)
		logf("echod", "registering formats with %s", cfg.Fmtserver)
	}
	if d.schema, err = openSchemaStore("echod", cfg.Policy, cfg.Store, metrics); err != nil {
		return nil, err
	}
	// The lineage catalogue carries full canonical format bodies, as the
	// mesh gossips it over LINEAGES, so a reader can adopt the formats.
	var lineages http.Handler
	if sr := d.schema.reg; sr != nil {
		opts = append(opts, echan.WithSchemaRegistry(sr))
		lineages = discovery.LineageHandler(func() []discovery.LineageDoc {
			return discovery.SnapshotLineagesFull(sr)
		})
		logf("echod", "schema registry attached (default policy %s)", cfg.Policy)
	}
	d.broker = echan.NewBroker(opts...)
	d.srv = echan.NewServer(d.broker)
	if d.addr, err = d.srv.Listen(cfg.Addr); err != nil {
		return nil, err
	}
	logf("echod", "listening on %s", d.addr)
	if cfg.Unix != "" {
		if _, err = d.srv.ListenUnix(cfg.Unix); err != nil {
			return nil, err
		}
		logf("echod", "unix fast lane on %s", cfg.Unix)
	}
	if federated {
		if err = d.federate(cfg, metrics, lineages); err != nil {
			return nil, err
		}
		logf("echod", "federated as %s (%d peers, retain %d)", d.mesh.Self(), len(d.mesh.Peers()), retain)
	}
	d.metricsHTTP, err = listenHTTP("echod", cfg.Metrics, map[string]http.Handler{
		"/metrics":                     metrics.Handler(),
		discovery.WellKnownLineagePath: lineages,
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// federate joins the mesh: peers given as http(s) URLs are bootstrapped
// from the peer's mesh document, and -mesh-listen serves this broker's own
// document (and the lineages) for others to bootstrap from.  Lineages are
// not fetched here: gossip pulls them, and so does a pinned SUB.
func (d *Echod) federate(cfg EchodConfig, metrics *obs.Registry, lineages http.Handler) error {
	self := cfg.Advertise
	if self == "" {
		self = d.addr
	}
	mesh := echan.NewMesh(d.broker, self)
	d.mesh = mesh
	ropts := []discovery.RepoOption{discovery.WithMetricsRegistry(metrics)}
	if d.schema.st != nil {
		ropts = append(ropts, discovery.WithDocStore(d.schema.st))
	}
	repo := discovery.NewRepository(ropts...)
	if n := repo.WarmFromStore(); n > 0 {
		logf("echod", "warmed %d discovery documents from store", n)
	}
	for _, p := range strings.Split(cfg.Peer, ",") {
		switch p = strings.TrimSpace(p); {
		case p == "":
		case strings.HasPrefix(p, "http://") || strings.HasPrefix(p, "https://"):
			doc, err := repo.FetchMesh(p)
			if err != nil {
				return fmt.Errorf("bootstrapping mesh from %s: %w", p, err)
			}
			mesh.AddPeer(doc.Self)
			for _, a := range doc.Peers {
				mesh.AddPeer(a)
			}
		default:
			mesh.AddPeer(p)
		}
	}
	var err error
	d.meshHTTP, err = listenHTTP("echod", cfg.MeshListen, map[string]http.Handler{
		discovery.WellKnownMeshPath: discovery.MeshHandler(func() discovery.MeshDoc {
			return discovery.MeshDoc{Self: mesh.Self(), Peers: mesh.Peers()}
		}),
		discovery.WellKnownLineagePath: lineages,
	})
	if err != nil {
		return err
	}
	d.srv.AttachMesh(mesh)
	mesh.Start()
	return nil
}

// Addr returns the bound control address.
func (d *Echod) Addr() string { return d.addr }

// MetricsAddr returns the bound -metrics address ("" when not serving).
func (d *Echod) MetricsAddr() string { return httpAddr(d.metricsHTTP) }

// MeshAddr returns the bound -mesh-listen address ("" when not serving).
func (d *Echod) MeshAddr() string { return httpAddr(d.meshHTTP) }

// Close stops the listeners, the mesh and the broker, then snapshots the
// registry into the store and closes it.
func (d *Echod) Close() error {
	errs := []error{d.metricsHTTP.close(), d.meshHTTP.close()}
	if d.mesh != nil {
		errs = append(errs, d.mesh.Close())
	}
	if d.srv != nil {
		errs = append(errs, d.srv.Close(), d.broker.Close())
	}
	if d.fc != nil {
		errs = append(errs, d.fc.Close())
	}
	return errors.Join(append(errs, d.schema.close())...)
}
