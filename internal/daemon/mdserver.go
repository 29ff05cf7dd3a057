package daemon

import (
	"net/http"
	"os"
	"time"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/hydro"
	"github.com/open-metadata/xmit/internal/obs"
)

// MdserverConfig is mdserver's command line, one field per flag (see
// cmd/mdserver).
type MdserverConfig struct {
	Addr string // -addr: listen address
	Dir  string // -dir: directory of schema documents to serve ("": built-ins only)
}

// Mdserver is a running metadata host.
type Mdserver struct {
	http *httpServer
}

// quickstartSchema is the Reading format of core's ExampleToolkit_LoadURL,
// so that `xmitgen http://<mdserver>/quickstart.xsd` exercises the whole
// remote-discovery path against this server.
const quickstartSchema = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Reading">
    <xsd:element name="station" type="xsd:string" />
    <xsd:element name="timestamp" type="xsd:unsignedLong" />
    <xsd:element name="temperature" type="xsd:float" />
    <xsd:element name="samples" type="xsd:double" minOccurs="0" maxOccurs="*"
        dimensionPlacement="before" dimensionName="nsamples" />
  </xsd:complexType>
</xsd:schema>`

// StartMdserver serves the built-in Hydrology and quickstart schemas (and
// cfg.Dir's documents, when set) with conditional GET, and the traffic
// metrics at /metrics.
func StartMdserver(cfg MdserverConfig, metrics *obs.Registry) (*Mdserver, error) {
	pub := discovery.NewDocServer()
	pub.Publish("hydrology.xsd", []byte(hydro.SchemaDocument))
	pub.Publish("quickstart.xsd", []byte(quickstartSchema))
	var docs http.Handler = pub
	if cfg.Dir != "" {
		if _, err := os.Stat(cfg.Dir); err != nil {
			return nil, err
		}
		docs = discovery.DirHandler(cfg.Dir)
	}
	h, err := listenHTTP("mdserver", cfg.Addr, map[string]http.Handler{
		"/hydrology.xsd":  counted(metrics, pub),
		"/quickstart.xsd": counted(metrics, pub),
		"/":               counted(metrics, docs),
		"/metrics":        metrics.Handler(),
	})
	if err != nil {
		return nil, err
	}
	return &Mdserver{http: h}, nil
}

// Addr returns the bound HTTP address.
func (d *Mdserver) Addr() string { return httpAddr(d.http) }

// Close stops the listener and its connections.
func (d *Mdserver) Close() error { return d.http.close() }

// statusWriter captures the response status for the counting middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// counted wraps a document handler with the server's traffic metrics.
func counted(reg *obs.Registry, h http.Handler) http.Handler {
	requests := reg.Counter("mdserver_requests_total")
	full := reg.Counter("mdserver_full_responses_total")
	notModified := reg.Counter("mdserver_not_modified_total")
	errors := reg.Counter("mdserver_errors_total")
	bytes := reg.Counter("mdserver_bytes_sent_total")
	latency := reg.Histogram("mdserver_request_ns")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		latency.Observe(time.Since(start))
		requests.Inc()
		bytes.Add(sw.bytes)
		switch {
		case sw.status == http.StatusNotModified:
			notModified.Inc()
		case sw.status >= 400:
			errors.Inc()
		default:
			full.Inc()
		}
	})
}
