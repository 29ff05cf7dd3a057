package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/echan"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/registry"
)

const soakChannel = "meshsoak"

// startEchod starts a broker on its own metrics registry, closing it when
// the test ends.
func startEchod(t *testing.T, cfg EchodConfig) *Echod {
	t.Helper()
	d, err := StartEchod(cfg, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	closeOnCleanup(t, d)
	return d
}

// soakChain builds an evolving lineage: v1 is {seq, val}, and each later
// version adds one integer field, so every step passes the backward policy.
func soakChain(t *testing.T, k int) []*meta.Format {
	t.Helper()
	defs := []meta.FieldDef{
		{Name: "seq", Kind: meta.Integer, Class: platform.LongLong},
		{Name: "val", Kind: meta.Float, Class: platform.Double},
	}
	var chain []*meta.Format
	for i := 0; i < k; i++ {
		if i > 0 {
			defs = append(defs, meta.FieldDef{Name: fmt.Sprintf("f%d", i), Kind: meta.Integer, Class: platform.Int})
		}
		f, err := meta.Build("MeshSoakEvent", platform.X8664, defs)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, f)
	}
	return chain
}

// soakRecord is event seq under format f: every field carries seq, as a
// double in the float fields.
func soakRecord(t *testing.T, f *meta.Format, seq int) *pbio.Record {
	t.Helper()
	rec := pbio.NewRecord(f)
	for _, fl := range f.Fields {
		var v any = seq
		if fl.Kind == meta.Float {
			v = float64(seq)
		}
		if err := rec.Set(fl.Name, v); err != nil {
			t.Fatal(err)
		}
	}
	return rec
}

// publish sends events first..first+n-1 under f and fails the test on any
// rejection.
func publish(t *testing.T, addr string, f *meta.Format, first, n int) {
	t.Helper()
	pub, err := echan.DialPublisherConn(addr, soakChannel, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := first; i < first+n; i++ {
		if err := pub.SendRecord(soakRecord(t, f, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Status(200 * time.Millisecond); err != nil {
		t.Fatalf("publisher rejected: %v", err)
	}
}

// lineageIDs is the channel's lineage as the broker's first LINEAGE answer
// gives it.
func lineageIDs(t *testing.T, addr string) []uint64 {
	t.Helper()
	ctl, err := echan.DialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	info, err := ctl.Lineage(soakChannel)
	if err != nil {
		t.Fatal(err)
	}
	return info.VersionIDs
}

// rejectBrokenHead publishes v1 with val's type changed from double to int,
// which every policy above none refuses, and returns the JSON of the
// *registry.CompatError the broker answers with.
func rejectBrokenHead(t *testing.T, addr string) string {
	t.Helper()
	broken, err := meta.Build("MeshSoakEvent", platform.X8664, []meta.FieldDef{
		{Name: "seq", Kind: meta.Integer, Class: platform.LongLong},
		{Name: "val", Kind: meta.Integer, Class: platform.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := echan.DialPublisherConn(addr, soakChannel, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.SendRecord(soakRecord(t, broken, -1)); err != nil {
		t.Fatal(err)
	}
	var ce *registry.CompatError
	if err := pub.Status(5 * time.Second); !errors.As(err, &ce) {
		t.Fatalf("broken head answered with %v, want a *registry.CompatError", err)
	}
	body, err := json.Marshal(ce)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// receivePinned drains sc until it has n events, which must be seq 0..n-1
// exactly once, in order, each decoded under the pinned format.
func receivePinned(sc *echan.SubscriberConn, n int, pinned meta.FormatID) error {
	defer sc.Close()
	for want := int64(0); want < int64(n); want++ {
		rec, err := sc.RecvRecord()
		if err != nil {
			return fmt.Errorf("after %d events: %v", want, err)
		}
		seq, _ := rec.Get("seq")
		val, _ := rec.Get("val")
		if seq != want || val != float64(want) {
			return fmt.Errorf("event %d: seq %v val %v (a gap, a repeat or a corrupt projection)", want, seq, val)
		}
		if id := rec.Format().ID(); id != pinned {
			return fmt.Errorf("event %d decoded under %s, want the pinned %s", want, id, pinned)
		}
	}
	return nil
}

// streamPinned attaches a v1-pinned subscriber through sub, publishes n
// events under the chain's head on home, and checks the subscriber sees
// each exactly once under v1.
func streamPinned(t *testing.T, home, sub string, chain []*meta.Format, n int) {
	t.Helper()
	sc, err := echan.DialSubscriberVersion(sub, soakChannel, echan.Block, 256, 1, pbio.NewContext())
	if err != nil {
		t.Fatalf("pinned subscribe via %s: %v", sub, err)
	}
	done := make(chan error, 1)
	go func() { done <- receivePinned(sc, n, chain[0].ID()) }()
	publish(t, home, chain[len(chain)-1], 0, n)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("pinned subscriber via %s: %v", sub, err)
		}
	case <-time.After(60 * time.Second):
		sc.Close()
		t.Fatalf("pinned subscriber via %s: timed out", sub)
	}
}

// checkLayout asserts the store directory a home restarts from: every
// format body in the one pack, no per-format manifests.
func checkLayout(t *testing.T, dir string) {
	t.Helper()
	if fi, err := os.Stat(filepath.Join(dir, "formats.pack")); err != nil || fi.Size() == 0 {
		t.Errorf("formats.pack missing or empty: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "plans")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("store has a plans entry (%v)", err)
	}
}

// copyDir copies the regular files under src into a new directory: the
// image a killed broker leaves, since the store syncs every append before
// the registration it records is acknowledged.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestRestartRecovery is the persistence contract: a home broker with a
// store and one peer grows a lineage to v4 and rejects a broken head; then
// the home restarts alone, with no peer to gossip anything back, once from
// the image a crash leaves and once after a graceful Close.  Each restart
// must serve the full lineage bit-exactly in its first LINEAGE answer,
// re-reject the broken head byte-identically, and carry a fresh stream to
// a v1-pinned subscriber exactly once.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := EchodConfig{Addr: "127.0.0.1:0", MeshListen: "127.0.0.1:0", Retain: 30000, Policy: "backward", Store: dir}
	home, err := StartEchod(cfg, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := StartEchod(EchodConfig{Addr: "127.0.0.1:0", Peer: home.Addr(), Retain: 30000, Policy: "backward"}, obs.NewRegistry())
	if err != nil {
		home.Close()
		t.Fatal(err)
	}

	chain := soakChain(t, 4)
	for i, f := range chain {
		publish(t, home.Addr(), f, -1-i, 1)
	}
	versions := lineageIDs(t, home.Addr())
	if len(versions) != len(chain) {
		t.Fatalf("seeded lineage has %d versions, want %d", len(versions), len(chain))
	}
	for i, f := range chain {
		if meta.FormatID(versions[i]) != f.ID() {
			t.Fatalf("seeded v%d = %s, want %s", i+1, meta.FormatID(versions[i]), f.ID())
		}
	}
	rejection := rejectBrokenHead(t, home.Addr())

	crashImage := copyDir(t, dir)
	for _, d := range []*Echod{peer, home} {
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}

	// The crash image recovers from the journal alone; Close snapshots, so
	// the graceful restart recovers from the snapshot.
	for _, c := range []struct {
		name, dir string
		snapshot  bool
	}{{"crash", crashImage, false}, {"graceful", dir, true}} {
		t.Run(c.name, func(t *testing.T) {
			checkLayout(t, c.dir)
			if _, err := os.Stat(filepath.Join(c.dir, "snapshot.xml")); (err == nil) != c.snapshot {
				t.Errorf("snapshot present = %v, want %v", err == nil, c.snapshot)
			}
			cfg.Store = c.dir
			d := startEchod(t, cfg)
			got := lineageIDs(t, d.Addr())
			if fmt.Sprint(got) != fmt.Sprint(versions) {
				t.Fatalf("first LINEAGE answer after restart = %x, want %x", got, versions)
			}
			if again := rejectBrokenHead(t, d.Addr()); again != rejection {
				t.Errorf("rejection drifted across the restart:\n  before: %s\n  after:  %s", rejection, again)
			}
			streamPinned(t, d.Addr(), d.Addr(), chain, 5000)
		})
	}
}

// TestJoinFromMeshDocumentServesPinnedSub: a broker that bootstraps from a
// peer's well-known mesh document, without fetching its lineages, serves a
// v1-pinned subscriber on its first SUB for a lineage that existed before
// it joined.  Gossip's first LINEAGES pull or the SUB's own pull from the
// channel's home supplies the lineage, whichever comes first.
func TestJoinFromMeshDocumentServesPinnedSub(t *testing.T) {
	home := startEchod(t, EchodConfig{Addr: "127.0.0.1:0", MeshListen: "127.0.0.1:0", Retain: -1, Policy: "backward"})
	chain := soakChain(t, 3)
	for i, f := range chain {
		publish(t, home.Addr(), f, -1-i, 1)
	}
	joiner := startEchod(t, EchodConfig{
		Addr:   "127.0.0.1:0",
		Peer:   "http://" + home.MeshAddr() + discovery.WellKnownMeshPath,
		Retain: -1,
		Policy: "backward",
	})
	streamPinned(t, home.Addr(), joiner.Addr(), chain, 200)
}
