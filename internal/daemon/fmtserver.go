package daemon

import (
	"errors"
	"fmt"
	"net/http"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/fmtserver"
	"github.com/open-metadata/xmit/internal/obs"
)

// FmtserverConfig is fmtserver's command line, one field per flag (see
// cmd/fmtserver).
type FmtserverConfig struct {
	Addr    string // -addr: listen address
	Metrics string // -metrics: serve /metrics and the lineages here ("": off)
	Policy  string // -policy: track lineages under this default policy ("": no lineages)
	Store   string // -store: persist the catalogue (and lineages, with Policy) here
}

// Fmtserver is a running format server.
type Fmtserver struct {
	addr        string
	schema      *schemaStore
	srv         *fmtserver.Server
	metricsHTTP *httpServer
}

// StartFmtserver recovers the catalogue and lineages from the store, if
// any, and starts the format server and its metrics listener.  On error
// nothing is left running.
func StartFmtserver(cfg FmtserverConfig, metrics *obs.Registry) (_ *Fmtserver, err error) {
	d := &Fmtserver{}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	reg := fmtserver.NewRegistry()
	reg.PublishMetrics(metrics, "fmtserver")
	if d.schema, err = openSchemaStore("fmtserver", cfg.Policy, cfg.Store, metrics); err != nil {
		return nil, err
	}
	var lineages http.Handler
	if sr := d.schema.reg; sr != nil {
		reg.AttachLineages(sr)
		lineages = discovery.LineageHandler(func() []discovery.LineageDoc {
			return discovery.SnapshotLineages(sr)
		})
		logf("fmtserver", "tracking lineages (default policy %s)", cfg.Policy)
	}
	if st := d.schema.st; st != nil {
		// The lineages were recovered first, so the warm-up re-registers
		// the catalogue against the recovered (not empty) histories.
		n, err := reg.WarmFromStore(st)
		if err != nil {
			return nil, fmt.Errorf("warming from store %s: %w", cfg.Store, err)
		}
		reg.AttachStore(st)
		logf("fmtserver", "warmed %d formats from %s", n, cfg.Store)
	}
	d.srv = fmtserver.NewServer(reg)
	if d.addr, err = d.srv.Listen(cfg.Addr); err != nil {
		return nil, err
	}
	logf("fmtserver", "listening on %s", d.addr)
	d.metricsHTTP, err = listenHTTP("fmtserver", cfg.Metrics, map[string]http.Handler{
		"/metrics":                     metrics.Handler(),
		discovery.WellKnownLineagePath: lineages,
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Addr returns the bound format-server address.
func (d *Fmtserver) Addr() string { return d.addr }

// MetricsAddr returns the bound -metrics address ("" when not serving).
func (d *Fmtserver) MetricsAddr() string { return httpAddr(d.metricsHTTP) }

// Close stops the listeners, then snapshots the lineages into the store
// and closes it.
func (d *Fmtserver) Close() error {
	errs := []error{d.metricsHTTP.close()}
	if d.srv != nil {
		errs = append(errs, d.srv.Close())
	}
	return errors.Join(append(errs, d.schema.close())...)
}
