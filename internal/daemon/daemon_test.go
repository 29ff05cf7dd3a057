package daemon

import (
	"strings"
	"testing"

	"github.com/open-metadata/xmit/internal/echan"
	"github.com/open-metadata/xmit/internal/fmtserver"
	"github.com/open-metadata/xmit/internal/hydro"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
)

// TestEchodServesAndCloses: a started broker carries one event from a
// publisher to a subscriber over its control port, registers the event's
// format with its -fmtserver, counts the publish on its own /metrics,
// refuses a second broker on a bound port without leaving anything
// running, and closes cleanly.
func TestEchodServesAndCloses(t *testing.T) {
	fmtMetrics := obs.NewRegistry()
	fs, err := StartFmtserver(FmtserverConfig{Addr: "127.0.0.1:0"}, fmtMetrics)
	if err != nil {
		t.Fatal(err)
	}
	closeOnCleanup(t, fs)
	metrics := obs.NewRegistry()
	d, err := StartEchod(EchodConfig{Addr: "127.0.0.1:0", Metrics: "127.0.0.1:0", Fmtserver: fs.Addr(), Queue: 64, Retain: -1}, metrics)
	if err != nil {
		t.Fatal(err)
	}

	f, err := meta.Build("Tick", platform.X8664, []meta.FieldDef{
		{Name: "seq", Kind: meta.Integer, Class: platform.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := echan.DialSubscriber(d.Addr(), "ticks", echan.Block, 0, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := echan.DialPublisherConn(d.Addr(), "ticks", pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	rec := pbio.NewRecord(f)
	if err := rec.Set("seq", 7); err != nil {
		t.Fatal(err)
	}
	if err := pub.SendRecord(rec); err != nil {
		t.Fatal(err)
	}
	got, err := sub.RecvRecord()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("seq"); v != int64(7) || got.Format().ID() != f.ID() {
		t.Errorf("subscriber got seq %v under %s, want 7 under %s", v, got.Format().ID(), f.ID())
	}
	pub.Close()
	sub.Close()
	if n, _ := fmtMetrics.Value("fmtserver_register_new_total"); n != 1 {
		t.Errorf("format server saw %v new registrations, want 1", n)
	}
	if _, body, _ := httpGet(t, "http://"+d.MetricsAddr()+"/metrics", ""); !strings.Contains(body, "echan_ticks_published_total 1\n") {
		t.Errorf("/metrics does not count the publish:\n%s", body)
	}

	for _, cfg := range []EchodConfig{
		{Addr: d.Addr()},
		{Addr: "127.0.0.1:0", Metrics: d.MetricsAddr()},
		{Addr: "127.0.0.1:0", MeshListen: d.MetricsAddr()},
		{Addr: "127.0.0.1:0", Store: t.TempDir()},
		{Addr: "127.0.0.1:0", Policy: "sideways"},
	} {
		if d2, err := StartEchod(cfg, obs.NewRegistry()); err == nil {
			d2.Close()
			t.Errorf("StartEchod(%+v) succeeded, want an error", cfg)
		}
	}
	if err := d.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestFmtserverServesAndCloses: a format registered with a started server
// is found by a second client (the first caches what it registers), the
// registration is counted on /metrics, and a second server on the bound
// port is refused.
func TestFmtserverServesAndCloses(t *testing.T) {
	metrics := obs.NewRegistry()
	d, err := StartFmtserver(FmtserverConfig{Addr: "127.0.0.1:0", Metrics: "127.0.0.1:0", Policy: "backward", Store: t.TempDir()}, metrics)
	if err != nil {
		t.Fatal(err)
	}
	f, err := meta.Build("Tick", platform.Sparc32, []meta.FieldDef{
		{Name: "seq", Kind: meta.Integer, Class: platform.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := fmtserver.NewClient(d.Addr())
	defer reg.Close()
	id, err := reg.Register(f)
	if err != nil || id != f.ID() {
		t.Fatalf("Register = %s, %v; want %s", id, err, f.ID())
	}
	look := fmtserver.NewClient(d.Addr())
	defer look.Close()
	got, err := look.ResolveFormat(f.ID())
	if err != nil || got.ID() != f.ID() {
		t.Fatalf("ResolveFormat = %v, %v", got, err)
	}
	if _, body, _ := httpGet(t, "http://"+d.MetricsAddr()+"/metrics", ""); !strings.Contains(body, "fmtserver_register_new_total 1\n") {
		t.Errorf("/metrics does not count the registration:\n%s", body)
	}
	if d2, err := StartFmtserver(FmtserverConfig{Addr: d.Addr()}, obs.NewRegistry()); err == nil {
		d2.Close()
		t.Error("a second format server started on a bound address")
	}
	if err := d.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestMdserverServesAndCloses: the Hydrology schema is served at its
// built-in path, a conditional GET with its ETag answers 304 and a missing
// document 404, and /metrics counts all three; a second host on the bound
// port, or one over a missing directory, is refused.
func TestMdserverServesAndCloses(t *testing.T) {
	metrics := obs.NewRegistry()
	d, err := StartMdserver(MdserverConfig{Addr: "127.0.0.1:0"}, metrics)
	if err != nil {
		t.Fatal(err)
	}
	code, body, etag := httpGet(t, "http://"+d.Addr()+"/hydrology.xsd", "")
	if code != 200 || body != hydro.SchemaDocument || etag == "" {
		t.Errorf("GET /hydrology.xsd = %d, %d bytes, ETag %q; want 200, the Hydrology schema and an ETag", code, len(body), etag)
	}
	if code, _, _ := httpGet(t, "http://"+d.Addr()+"/hydrology.xsd", etag); code != 304 {
		t.Errorf("conditional GET = %d, want 304", code)
	}
	if code, _, _ := httpGet(t, "http://"+d.Addr()+"/missing.xsd", ""); code != 404 {
		t.Errorf("GET /missing.xsd = %d, want 404", code)
	}
	_, body, _ = httpGet(t, "http://"+d.Addr()+"/metrics", "")
	for _, want := range []string{"mdserver_requests_total 3\n", "mdserver_full_responses_total 1\n",
		"mdserver_not_modified_total 1\n", "mdserver_errors_total 1\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, body)
		}
	}
	for _, cfg := range []MdserverConfig{{Addr: d.Addr()}, {Addr: "127.0.0.1:0", Dir: t.TempDir() + "/missing"}} {
		if d2, err := StartMdserver(cfg, obs.NewRegistry()); err == nil {
			d2.Close()
			t.Errorf("StartMdserver(%+v) succeeded, want an error", cfg)
		}
	}
	if err := d.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
