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
// The server's body is daemon.StartMdserver; SIGINT or SIGTERM stops it.
//
// Usage:
//
//	mdserver -addr :8700 -dir ./schemas
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"github.com/open-metadata/xmit/internal/daemon"
	"github.com/open-metadata/xmit/internal/obs"
)

func main() {
	var cfg daemon.MdserverConfig
	flag.StringVar(&cfg.Addr, "addr", "127.0.0.1:8700", "listen address")
	flag.StringVar(&cfg.Dir, "dir", "", "directory of schema documents to serve (optional)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	metrics := obs.Default()
	d, err := daemon.StartMdserver(cfg, metrics)
	if err != nil {
		log.Fatalf("mdserver: %v", err)
	}
	obs.PublishExpvar("mdserver", metrics)
	<-ctx.Done()
	stop()
	if err := d.Close(); err != nil {
		log.Fatalf("mdserver: %v", err)
	}
}
