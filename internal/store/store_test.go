package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/open-metadata/xmit/internal/fmtserver"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/registry"
)

func openTest(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, WithSync(false), WithMetricsRegistry(obs.NewRegistry()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// chainFormat builds version v of the test lineage: {seq, val} plus v-1
// added int fields, the same additive shape the soak uses.
func chainFormat(t *testing.T, name string, v int) *meta.Format {
	t.Helper()
	defs := []meta.FieldDef{
		{Name: "seq", Kind: meta.Integer, Class: platform.LongLong},
		{Name: "val", Kind: meta.Float, Class: platform.Double},
	}
	for i := 1; i < v; i++ {
		defs = append(defs, meta.FieldDef{
			Name: "f" + string(rune('a'+i-1)), Kind: meta.Integer, Class: platform.Int,
		})
	}
	f, err := meta.Build(name, platform.X8664, defs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return f
}

func TestBlobPutGetDedup(t *testing.T) {
	s := openTest(t, t.TempDir())
	data := []byte("<format name=\"x\"/>")
	id, err := s.PutBlob(data)
	if err != nil {
		t.Fatalf("PutBlob: %v", err)
	}
	if want := HashBytes(data); id != want {
		t.Fatalf("PutBlob key %s, want content hash %s", id, want)
	}
	got, err := s.GetBlob(id)
	if err != nil {
		t.Fatalf("GetBlob: %v", err)
	}
	if string(got) != string(data) {
		t.Fatalf("GetBlob = %q, want %q", got, data)
	}
	// Re-putting identical content dedups.
	if _, err := s.PutBlob(data); err != nil {
		t.Fatalf("dedup PutBlob: %v", err)
	}
	if v, _ := s.metrics.Value("store_blob_dedup_total"); v != 1 {
		t.Fatalf("store_blob_dedup_total = %v, want 1", v)
	}
}

func TestBlobCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	id, err := s.PutBlob([]byte("pristine content"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.blobPath(id), []byte("bitrot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetBlob(id); err == nil {
		t.Fatalf("GetBlob served a blob that does not hash to its key")
	}
	if v, _ := s.metrics.Value("store_blob_corrupt_total"); v != 1 {
		t.Fatalf("store_blob_corrupt_total = %v, want 1", v)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	f := chainFormat(t, "metric", 2)
	id, err := s.PutFormat(f)
	if err != nil {
		t.Fatalf("PutFormat: %v", err)
	}
	if id != f.ID() {
		t.Fatalf("PutFormat key %s, want f.ID() %s", id, f.ID())
	}
	size := fileSize(t, filepath.Join(dir, packName))
	if _, err := s.PutFormat(f); err != nil {
		t.Fatalf("dedup PutFormat: %v", err)
	}
	if again := fileSize(t, filepath.Join(dir, packName)); again != size {
		t.Fatalf("re-putting a stored format grew the pack from %d to %d bytes", size, again)
	}
	s.Close()

	// A fresh handle serves it from the pack, parsed once however often it
	// is asked for and by whichever door.
	s2 := openTest(t, dir)
	got, err := s2.GetFormat(id)
	if err != nil {
		t.Fatalf("GetFormat: %v", err)
	}
	if string(got.Canonical()) != string(f.Canonical()) {
		t.Fatalf("GetFormat canonical bytes differ")
	}
	seen := 0
	s2.Formats(func(fid meta.FormatID, canonical []byte, pf *meta.Format) bool {
		seen++
		if fid != id || string(canonical) != string(f.Canonical()) || pf != got {
			t.Fatalf("Formats yielded %s (%d bytes, format %p), want %s and the format GetFormat returned (%p)",
				fid, len(canonical), pf, id, got)
		}
		return true
	})
	if again, _ := s2.GetFormat(id); seen != 1 || again != got {
		t.Fatalf("Formats yielded %d formats, second GetFormat %p; want 1 and %p", seen, again, got)
	}
	for name, want := range map[string]float64{"store_format_read_total": 1, "store_format_parse_total": 1} {
		if v, _ := s2.metrics.Value(name); v != want {
			t.Fatalf("%s = %v, want %v", name, v, want)
		}
	}
	if _, err := s2.GetFormat(id + 1); err == nil {
		t.Fatalf("GetFormat served an ID that was never stored")
	}
}

func TestDocumentTier(t *testing.T) {
	s := openTest(t, t.TempDir())
	now := time.Now()
	if err := s.StoreDocument("http://x/a.xsd", []byte("<a/>"), `"e1"`, "Mon", now); err != nil {
		t.Fatalf("StoreDocument: %v", err)
	}
	data, etag, lm, at, ok := s.LoadDocument("http://x/a.xsd")
	if !ok || string(data) != "<a/>" || etag != `"e1"` || lm != "Mon" || !at.Equal(time.Unix(0, now.UnixNano())) {
		t.Fatalf("LoadDocument = %q, %q, %q, %v, %v", data, etag, lm, at, ok)
	}
	if _, _, _, _, ok := s.LoadDocument("http://x/missing.xsd"); ok {
		t.Fatalf("LoadDocument hit for a URL never stored")
	}
	// Two URLs, identical payload: one blob, two index entries.
	if err := s.StoreDocument("http://y/a.xsd", []byte("<a/>"), "", "", now); err != nil {
		t.Fatal(err)
	}
	urls := s.Documents()
	if len(urls) != 2 {
		t.Fatalf("Documents = %v, want 2 URLs", urls)
	}
	if v, _ := s.metrics.Value("store_blob_dedup_total"); v != 1 {
		t.Fatalf("identical payload not deduplicated: dedup counter %v", v)
	}
	// A corrupted index entry is a miss, never a wrong answer.
	if err := os.WriteFile(s.docPath("http://x/a.xsd"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, ok := s.LoadDocument("http://x/a.xsd"); ok {
		t.Fatalf("LoadDocument served a corrupt index entry")
	}
}

// TestPersistRegistryRestart is the heart of the tentpole: a registry's
// lineage history, version numbering, policy, and head decision all survive
// a close-and-reopen, recovered purely from the journal (no snapshot), and
// the recovered registry re-rejects the same incompatible head with a
// bit-identical CompatError.
func TestPersistRegistryRestart(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)

	reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := s.PersistRegistry(reg); err != nil {
		t.Fatalf("PersistRegistry: %v", err)
	}
	chain := []*meta.Format{
		chainFormat(t, "metric", 1), chainFormat(t, "metric", 2), chainFormat(t, "metric", 3),
	}
	for _, f := range chain {
		if _, err := reg.Register("metric", f, "test"); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	if err := reg.SetPolicy("metric", registry.PolicyFull); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	// The head decision to reproduce: val changes type, violating full.
	broken, err := meta.Build("metric", platform.X8664, []meta.FieldDef{
		{Name: "seq", Kind: meta.Integer, Class: platform.LongLong},
		{Name: "val", Kind: meta.Integer, Class: platform.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = reg.Register("metric", broken, "test")
	var ce *registry.CompatError
	if !errors.As(err, &ce) {
		t.Fatalf("broken head not rejected with CompatError: %v", err)
	}
	before, err := json.Marshal(ce)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("observer path failed: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh store handle, fresh registry, recover.
	s2 := openTest(t, dir)
	reg2 := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	rs, err := s2.PersistRegistry(reg2)
	if err != nil {
		t.Fatalf("recovering: %v", err)
	}
	if rs.Versions != 3 || rs.SnapshotVersions != 0 || rs.JournalRecords < 4 {
		t.Fatalf("RecoverStats = %+v, want 3 journal-replayed versions", rs)
	}
	l, err := reg2.Lineage("metric")
	if err != nil {
		t.Fatal(err)
	}
	if l.Policy() != registry.PolicyFull {
		t.Fatalf("recovered policy %s, want full", l.Policy())
	}
	vs := l.Versions()
	if len(vs) != 3 {
		t.Fatalf("recovered %d versions, want 3", len(vs))
	}
	for i, v := range vs {
		if v.ID != chain[i].ID() {
			t.Fatalf("recovered v%d = %s, want %s", i+1, v.ID, chain[i].ID())
		}
		if v.Version != i+1 {
			t.Fatalf("recovered version number %d at position %d", v.Version, i)
		}
	}
	// The same broken head is re-rejected, byte-identically.
	_, err = reg2.Register("metric", broken, "test")
	var ce2 *registry.CompatError
	if !errors.As(err, &ce2) {
		t.Fatalf("recovered registry accepted the broken head: %v", err)
	}
	after, err := json.Marshal(ce2)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("rejection drifted across restart:\n  before: %s\n  after:  %s", before, after)
	}
}

// TestSnapshotCompactsAndRecovers proves the snapshot path: after Snapshot
// the journal is empty, recovery comes from the snapshot document, and
// post-snapshot appends land in the journal and replay on top.
func TestSnapshotCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := s.PersistRegistry(reg); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 2; v++ {
		if _, err := reg.Register("metric", chainFormat(t, "metric", v), "test"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(reg); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "journal")); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not compacted after snapshot: %v, %v", fi, err)
	}
	// One more append after the snapshot.
	if _, err := reg.Register("metric", chainFormat(t, "metric", 3), "test"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTest(t, dir)
	reg2 := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	rs, err := s2.RecoverRegistry(reg2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotVersions != 2 || rs.Versions != 3 {
		t.Fatalf("RecoverStats = %+v, want 2 snapshot + 1 journal versions", rs)
	}
	l, _ := reg2.Lineage("metric")
	if l.Len() != 3 {
		t.Fatalf("recovered %d versions, want 3", l.Len())
	}
}

// TestTornSnapshotFallsBack corrupts the newest snapshot and expects
// recovery from the previous one plus the journal.
func TestTornSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := s.PersistRegistry(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("metric", chainFormat(t, "metric", 1), "test"); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("metric", chainFormat(t, "metric", 2), "test"); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(reg); err != nil { // rotates snapshot 1 to .prev
		t.Fatal(err)
	}
	if _, err := reg.Register("metric", chainFormat(t, "metric", 3), "test"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the newest snapshot mid-payload.
	snap := filepath.Join(dir, "snapshot.xml")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir)
	reg2 := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	rs, err := s2.RecoverRegistry(reg2)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.SnapshotFallback {
		t.Fatalf("RecoverStats = %+v, want SnapshotFallback", rs)
	}
	// snapshot.prev holds v1; the journal still holds v2 (appended after
	// snapshot 1, before snapshot 2's compaction... which ran).  The torn
	// snapshot covered v1+v2; its journal was compacted, then v3 appended.
	// Fallback therefore recovers v1 (prev snapshot) + v3's journal record —
	// but v3 cannot adopt out of order, so the lineage stops at v1 + skips.
	l, err := reg2.Lineage("metric")
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() < 1 {
		t.Fatalf("fallback recovered %d versions, want at least v1", l.Len())
	}
	vs := l.Versions()
	if vs[0].ID != chainFormat(t, "metric", 1).ID() {
		t.Fatalf("fallback v1 = %s, want the original v1", vs[0].ID)
	}
}

// TestTornJournalTail appends garbage to the journal and expects open to cut
// it back to the last clean record, with replay unaffected.
func TestTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := s.PersistRegistry(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("metric", chainFormat(t, "metric", 1), "test"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	jpath := filepath.Join(dir, "journal")
	clean, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x00, 0x7f, 0xde, 0xad}) // half a frame header
	f.Close()

	s2 := openTest(t, dir)
	if v, _ := s2.metrics.Value("store_journal_truncated_total"); v != 1 {
		t.Fatalf("store_journal_truncated_total = %v, want 1", v)
	}
	after, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(clean) {
		t.Fatalf("torn tail not cut back to the clean prefix: %d bytes, want %d", len(after), len(clean))
	}
	reg2 := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	rs, err := s2.RecoverRegistry(reg2)
	if err != nil || rs.Versions != 1 {
		t.Fatalf("recovery after tail cut: %+v, %v; want 1 version", rs, err)
	}
}

// TestMissingBlobBreaksLineageSafely drops a journaled format's body from the
// pack; the lineage must stop at the preceding version rather than renumber.
func TestMissingBlobBreaksLineageSafely(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := s.PersistRegistry(reg); err != nil {
		t.Fatal(err)
	}
	chain := []*meta.Format{
		chainFormat(t, "metric", 1), chainFormat(t, "metric", 2), chainFormat(t, "metric", 3),
	}
	for _, f := range chain {
		if _, err := reg.Register("metric", f, "test"); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	pack := appendFrame(appendFrame(nil, chain[0].Canonical()), chain[2].Canonical())
	if err := os.WriteFile(filepath.Join(dir, packName), pack, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir)
	reg2 := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	rs, err := s2.RecoverRegistry(reg2)
	if err != nil {
		t.Fatalf("recovery must tolerate a missing blob: %v", err)
	}
	if rs.MissingBlobs != 1 {
		t.Fatalf("RecoverStats = %+v, want 1 missing blob", rs)
	}
	l, _ := reg2.Lineage("metric")
	if l.Len() != 1 {
		t.Fatalf("lineage has %d versions, want 1 (v2 missing must also stop v3)", l.Len())
	}
}

// TestObserverNotReJournaling: PersistRegistry attaches the observer only
// after replay, so recovery does not double the journal.
func TestObserverNotReJournaling(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := s.PersistRegistry(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("metric", chainFormat(t, "metric", 1), "test"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	size1 := fileSize(t, filepath.Join(dir, "journal"))

	for i := 0; i < 3; i++ {
		s2 := openTest(t, dir)
		reg2 := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
		if _, err := s2.PersistRegistry(reg2); err != nil {
			t.Fatal(err)
		}
		s2.Close()
	}
	if size2 := fileSize(t, filepath.Join(dir, "journal")); size2 != size1 {
		t.Fatalf("journal grew from %d to %d bytes across recover-only restarts", size1, size2)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestRecoverRegistryLinear gates the shape of recovery, not its speed: the
// bytes RecoverRegistry allocates must grow with the catalogue, not with its
// square.  Eight times the lineages may cost twelve times the bytes (maps
// grow in steps); the per-record copy of the lineage table this replaced
// cost about sixty-four times.
func TestRecoverRegistryLinear(t *testing.T) {
	allocated := func(lineages int) uint64 {
		dir := t.TempDir()
		s := openTest(t, dir)
		reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
		if _, err := s.PersistRegistry(reg); err != nil {
			t.Fatal(err)
		}
		batch := make([]registry.Update, lineages)
		for i := range batch {
			name := fmt.Sprintf("cat%05d", i)
			batch[i] = registry.Update{Lineage: name, Mutations: []registry.Mutation{
				{Format: chainFormat(t, name, 1), Source: "test"},
			}}
		}
		reg.Apply(batch) // the observer journals every append
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		s.Close()

		s2 := openTest(t, dir)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rs, err := s2.RecoverRegistry(registry.New())
		runtime.ReadMemStats(&after)
		if err != nil || rs.Lineages != lineages || rs.Versions != lineages {
			t.Fatalf("recovered %+v, %v; want %d one-version lineages", rs, err, lineages)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(500), allocated(4000)
	t.Logf("RecoverRegistry allocated %d bytes at 500 lineages, %d at 4000 (%.1fx)", small, large, float64(large)/float64(small))
	if large > 12*small {
		t.Errorf("recovery allocation grew %.1fx for 8x the lineages, want <= 12x", float64(large)/float64(small))
	}
}

// TestLiveRegisterLinear gates the shape of live registration the way
// TestRecoverRegistryLinear gates recovery: with the journaling observer
// attached, registering lineages 2001-4000 may allocate at most 1.5x what
// lineages 1-2000 did.  A lineage table copied per new lineage (what
// Registry.ensure did) costs the second half about three times the first.
func TestLiveRegisterLinear(t *testing.T) {
	const half = 2000
	formats := make([]*meta.Format, 2*half)
	for i := range formats {
		formats[i] = chainFormat(t, fmt.Sprintf("cat%05d", i), 1)
	}
	s := openTest(t, t.TempDir())
	reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := s.PersistRegistry(reg); err != nil {
		t.Fatal(err)
	}
	allocated := func(batch []*meta.Format) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, f := range batch {
			if _, err := reg.Register(f.Name, f, "test"); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := allocated(formats[:half]), allocated(formats[half:])
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("registering lineages 1-%d allocated %d bytes, %d-%d allocated %d (%.2fx)",
		half, first, half+1, 2*half, second, float64(second)/float64(first))
	if 2*second > 3*first {
		t.Errorf("the second %d registrations allocated %.2fx the first, want <= 1.5x", half, float64(second)/float64(first))
	}
}

// TestRestartIsOnePass is the gate that does not depend on timing: a restart
// that recovers the registry and then warms the catalogue reads every stored
// format from disk once and parses it once (both were twice when each format
// was a file that recovery and the warm each opened), recovers and warms
// what it always did, and finds a directory whose file count does not depend
// on the size of the catalogue.
func TestRestartIsOnePass(t *testing.T) {
	restart := func(n int) (files int) {
		dir := t.TempDir()
		s := openTest(t, dir)
		reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
		if _, err := s.PersistRegistry(reg); err != nil {
			t.Fatal(err)
		}
		batch := make([]registry.Update, n)
		for i := range batch {
			name := fmt.Sprintf("cat%05d", i)
			batch[i] = registry.Update{Lineage: name, Mutations: []registry.Mutation{
				{Format: chainFormat(t, name, 1), Source: "test"},
			}}
		}
		reg.Apply(batch)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		s.Close()

		s2 := openTest(t, dir)
		rs, err := s2.RecoverRegistry(registry.New(registry.WithDefaultPolicy(registry.PolicyBackward)))
		if err != nil || rs.Versions != n || rs.MissingBlobs != 0 {
			t.Fatalf("%d formats: recovered %+v, %v", n, rs, err)
		}
		warmed, err := fmtserver.NewRegistry().WarmFromStore(s2)
		if err != nil || warmed != n {
			t.Fatalf("%d formats: warmed %d, %v", n, warmed, err)
		}
		for _, name := range []string{"store_format_read_total", "store_format_parse_total"} {
			if v, _ := s2.metrics.Value(name); v != float64(n) {
				t.Errorf("%d formats: %s = %v after recover + warm, want one per stored format", n, name, v)
			}
		}
		filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				files++
			}
			return nil
		})
		return files
	}
	small, large := restart(200), restart(2000)
	if small != large {
		t.Errorf("the store directory holds %d files at 200 formats and %d at 2000, want the same", small, large)
	}
}

// TestWarmSharesTheStoresFormats drives the directory-server restart: the
// lineages are recovered, then the catalogue is warmed against them from the
// same store.  The catalogue must serve the store's own bytes (no copy),
// re-registration against the recovered lineages must change nothing, a
// stored format its lineage would not admit is skipped, and a registration
// after AttachStore is written through to the pack.
func TestWarmSharesTheStoresFormats(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := s.PersistRegistry(reg); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 3; v++ {
		if _, err := reg.Register("metric", chainFormat(t, "metric", v), "test"); err != nil {
			t.Fatal(err)
		}
	}
	// In the store but in no lineage, and not admissible to "metric".
	stray, err := meta.Build("metric", platform.X8664, []meta.FieldDef{
		{Name: "seq", Kind: meta.Integer, Class: platform.LongLong},
		{Name: "val", Kind: meta.Integer, Class: platform.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutFormat(stray); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTest(t, dir)
	reg2 := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := s2.PersistRegistry(reg2); err != nil {
		t.Fatal(err)
	}
	rev := reg2.Rev()
	cat := fmtserver.NewRegistry()
	cat.AttachLineages(reg2)
	warmed, err := cat.WarmFromStore(s2)
	if err != nil || warmed != 3 {
		t.Fatalf("warmed %d formats, %v; want the 3 the lineage admits", warmed, err)
	}
	if reg2.Rev() != rev {
		t.Fatalf("warming against the recovered lineages moved the registry from rev %d to %d", rev, reg2.Rev())
	}
	if _, ok := cat.LookupCanonical(stray.ID()); ok {
		t.Fatalf("the catalogue serves a format its lineage rejects")
	}
	s2.Formats(func(id meta.FormatID, canonical []byte, _ *meta.Format) bool {
		if got, ok := cat.LookupCanonical(id); ok && &got[0] != &canonical[0] {
			t.Errorf("format %s: the catalogue holds a copy of the store's bytes", id)
		}
		return true
	})
	cat.AttachStore(s2)
	v4 := chainFormat(t, "metric", 4)
	if _, err := cat.Register(v4); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.GetFormat(v4.ID()); err != nil || string(got.Canonical()) != string(v4.Canonical()) {
		t.Fatalf("a registration after AttachStore did not reach the pack: %v", err)
	}
}
