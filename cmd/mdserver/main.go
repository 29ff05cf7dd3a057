// Command mdserver hosts XML metadata documents over HTTP — the role the
// Apache server plays in the paper's experiments.  It serves *.xsd/*.xml
// files from a directory, with the Hydrology application's schema document
// published at /hydrology.xsd and the quickstart's Reading schema at
// /quickstart.xsd by default so a demo works out of the box.
//
// Operational metrics (request, 304-revalidation, and error counts, plus
// request latency) are served at /metrics as plain text, or JSON with
// ?format=json.
//
// Usage:
//
//	mdserver -addr :8700 -dir ./schemas
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/hydro"
	"github.com/open-metadata/xmit/internal/obs"
)

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

func main() {
	addr := flag.String("addr", "127.0.0.1:8700", "listen address")
	dir := flag.String("dir", "", "directory of schema documents to serve (optional)")
	flag.Parse()

	metrics := obs.Default()
	mux := http.NewServeMux()
	pub := discovery.NewDocServer()
	pub.Publish("hydrology.xsd", []byte(hydro.SchemaDocument))
	pub.Publish("quickstart.xsd", []byte(quickstartSchema))
	mux.Handle("/hydrology.xsd", counted(metrics, pub))
	mux.Handle("/quickstart.xsd", counted(metrics, pub))
	if *dir != "" {
		if _, err := os.Stat(*dir); err != nil {
			log.Fatalf("mdserver: %v", err)
		}
		mux.Handle("/", counted(metrics, discovery.DirHandler(*dir)))
	} else {
		mux.Handle("/", counted(metrics, pub))
	}
	mux.Handle("/metrics", metrics.Handler())
	obs.PublishExpvar("mdserver", metrics)

	fmt.Printf("mdserver: serving metadata on http://%s/ (try /hydrology.xsd; metrics at /metrics)\n", *addr)
	log.Fatal(http.ListenAndServe(*addr, mux))
}
