package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/registry"
)

// TestCrashBetweenTempWriteAndRename simulates a process killed after the
// temp file was written but before the rename: the store must reopen
// cleanly, sweep the orphan, and serve exactly the blobs that were renamed.
func TestCrashBetweenTempWriteAndRename(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	committed, err := s.PutBlob([]byte("committed before the crash"))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// The crash artifacts: orphaned temp files in the blob tree, the docs
	// dir, and the store root (a snapshot temp), exactly where
	// writeFileAtomic and writeSnapshotDoc create them.
	orphans := []string{
		filepath.Join(dir, "blobs", "ab", "abcd.1234.tmp"),
		filepath.Join(dir, "docs", "deadbeef.json.99.tmp"),
		filepath.Join(dir, "snapshot.xml.7.tmp"),
	}
	for _, p := range orphans {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openTest(t, dir)
	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("orphan temp file %s survived reopen", p)
		}
	}
	if data, err := s2.GetBlob(committed); err != nil || string(data) != "committed before the crash" {
		t.Fatalf("committed blob lost: %q, %v", data, err)
	}
}

// commitPoint is what a seeding process had made durable after one registry
// mutation: the sizes of the pack and the journal, and the full lineage
// document a recovery from exactly those bytes must reproduce.
type commitPoint struct {
	pack, journal int
	doc           string
}

// seedCommitPoints drives a four-version lineage and a policy change through
// the journaling observer and returns the finished pack and journal with the
// commit point after every mutation (the first is the empty store).
func seedCommitPoints(t *testing.T) (pack, journal []byte, points []commitPoint) {
	t.Helper()
	dir := t.TempDir()
	s := openTest(t, dir)
	reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := s.PersistRegistry(reg); err != nil {
		t.Fatal(err)
	}
	mark := func() {
		points = append(points, commitPoint{
			pack:    int(fileSize(t, filepath.Join(dir, packName))),
			journal: int(fileSize(t, filepath.Join(dir, journalName))),
			doc:     string(discovery.MarshalLineages(discovery.SnapshotLineagesFull(reg))),
		})
	}
	mark()
	for v := 1; v <= 4; v++ {
		if _, err := reg.Register("metric", chainFormat(t, "metric", v), "test"); err != nil {
			t.Fatal(err)
		}
		mark()
		if v == 2 {
			if err := reg.SetPolicy("metric", registry.PolicyFull); err != nil {
				t.Fatal(err)
			}
			mark()
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	return readFile(t, filepath.Join(dir, packName)), readFile(t, filepath.Join(dir, journalName)), points
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// crashedStore opens a store whose pack and journal are exactly the given
// bytes — the disk a process killed at that point leaves behind.
func crashedStore(t *testing.T, pack, journal []byte) *Store {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, packName), pack, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	return openTest(t, dir)
}

// TestCrashMidAppend replays every kill point of the append path.  A
// registration appends its body to the pack and then its record to the
// journal, so the disks a crash can leave are: the pack torn anywhere inside
// the body being appended with the journal at the previous commit point; the
// body whole and the journal record not yet begun; and the journal torn
// anywhere inside that record.  From every one of them recovery must resolve
// every surviving journal record's body and reproduce, bit for bit, the
// lineage document of the last commit point the journal reaches — never an
// error, never a renumbered or reordered lineage.
func TestCrashMidAppend(t *testing.T) {
	pack, journal, points := seedCommitPoints(t)
	// reached returns the last commit point whose size (by the given
	// measure) is within cut.
	reached := func(cut int, size func(commitPoint) int) commitPoint {
		at := points[0]
		for _, p := range points {
			if size(p) <= cut {
				at = p
			}
		}
		return at
	}
	check := func(what string, packCut, journalCut int, want commitPoint) {
		t.Helper()
		s := crashedStore(t, pack[:packCut], journal[:journalCut])
		defer s.Close()
		reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
		rs, err := s.RecoverRegistry(reg)
		if err != nil {
			t.Fatalf("%s (pack %d, journal %d): recover: %v", what, packCut, journalCut, err)
		}
		if rs.MissingBlobs != 0 {
			t.Fatalf("%s (pack %d, journal %d): %d journal records without a body", what, packCut, journalCut, rs.MissingBlobs)
		}
		if got := string(discovery.MarshalLineages(discovery.SnapshotLineagesFull(reg))); got != want.doc {
			t.Fatalf("%s (pack %d, journal %d): recovered document differs from the committed prefix\n got: %s\nwant: %s",
				what, packCut, journalCut, got, want.doc)
		}
	}
	// Journal cut at every offset, every body on disk.
	for cut := 0; cut <= len(journal); cut++ {
		check("journal torn", len(pack), cut, reached(cut, func(p commitPoint) int { return p.journal }))
	}
	// Pack cut at every offset, the journal where it was when that byte of
	// the pack was being written.
	for cut := 0; cut <= len(pack); cut++ {
		at := reached(cut, func(p commitPoint) int { return p.pack })
		check("pack torn", cut, at.journal, at)
	}
	// Killed between the two appends: the next body whole, its record absent.
	for i := 0; i+1 < len(points); i++ {
		check("between appends", points[i+1].pack, points[i].journal, points[i])
	}
}

// TestBodyBeforeRecord pins the order TestCrashMidAppend's kill points assume:
// a registration whose body cannot be appended to the pack leaves no journal
// record behind (and latches Err), so the journal never references a body
// the pack does not hold.
func TestBodyBeforeRecord(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := s.PersistRegistry(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("metric", chainFormat(t, "metric", 1), "test"); err != nil {
		t.Fatal(err)
	}
	journal := fileSize(t, filepath.Join(dir, journalName))
	s.pack.Close() // every further pack append fails
	if _, err := reg.Register("metric", chainFormat(t, "metric", 2), "test"); err != nil {
		t.Fatal(err)
	}
	if s.Err() == nil {
		t.Fatalf("a failed pack append was not latched into Err")
	}
	if now := fileSize(t, filepath.Join(dir, journalName)); now != journal {
		t.Fatalf("journal grew from %d to %d bytes for a version whose body never reached the pack", journal, now)
	}
}

// TestCrashMidPackAppend truncates the pack at every byte offset: Open must
// cut it back to the last whole record, serve exactly the formats before
// the cut, and leave a file that later appends extend consistently — putting
// the lost formats again rebuilds the original pack byte for byte.
func TestCrashMidPackAppend(t *testing.T) {
	var formats []*meta.Format
	var full []byte
	ends := []int{0} // pack size after each format
	for v := 1; v <= 4; v++ {
		f := chainFormat(t, "metric", v)
		formats = append(formats, f)
		full = appendFrame(full, f.Canonical())
		ends = append(ends, len(full))
	}
	for cut := 0; cut <= len(full); cut++ {
		whole := 0
		for whole+1 < len(ends) && ends[whole+1] <= cut {
			whole++
		}
		s := crashedStore(t, full[:cut], nil)
		if got := int(fileSize(t, s.packPath())); got != ends[whole] {
			t.Fatalf("cut %d: pack is %d bytes after Open, want the %d of its %d whole records", cut, got, ends[whole], whole)
		}
		torn, _ := s.metrics.Value("store_pack_truncated_total")
		if want := cut != ends[whole]; (torn == 1) != want {
			t.Fatalf("cut %d: store_pack_truncated_total = %v, torn tail = %v", cut, torn, want)
		}
		for i, f := range formats {
			got, err := s.GetFormat(f.ID())
			if i >= whole {
				if err == nil {
					t.Fatalf("cut %d: format %d served from beyond the cut", cut, i)
				}
				continue
			}
			if err != nil || string(got.Canonical()) != string(f.Canonical()) {
				t.Fatalf("cut %d: format %d did not survive: %v", cut, i, err)
			}
		}
		for _, f := range formats {
			if _, err := s.PutFormat(f); err != nil {
				t.Fatalf("cut %d: PutFormat: %v", cut, err)
			}
		}
		s.Close()
		if got := readFile(t, s.packPath()); string(got) != string(full) {
			t.Fatalf("cut %d: appends after the cut left a %d-byte pack that is not the original %d bytes", cut, len(got), len(full))
		}
	}
}

// TestPackCorruptionEndsPack flips one byte inside a record's body: the pack
// ends at the record before it, the mismatch is counted, and nothing at or
// after the flipped record is served.
func TestPackCorruptionEndsPack(t *testing.T) {
	var formats []*meta.Format
	var pack []byte
	var ends []int
	for v := 1; v <= 3; v++ {
		f := chainFormat(t, "metric", v)
		formats = append(formats, f)
		pack = appendFrame(pack, f.Canonical())
		ends = append(ends, len(pack))
	}
	pack[ends[0]+frameHeader+5] ^= 0x40 // inside the second record's body
	s := crashedStore(t, pack, nil)
	for name, want := range map[string]float64{
		"store_blob_corrupt_total": 1, "store_pack_truncated_total": 1, "store_format_read_total": 1,
	} {
		if v, _ := s.metrics.Value(name); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	if got := int(fileSize(t, s.packPath())); got != ends[0] {
		t.Errorf("pack is %d bytes after Open, want the first record's %d", got, ends[0])
	}
	if _, err := s.GetFormat(formats[0].ID()); err != nil {
		t.Errorf("the record before the flipped byte was lost: %v", err)
	}
	for _, f := range formats[1:] {
		if _, err := s.GetFormat(f.ID()); err == nil {
			t.Errorf("format %s served from at or beyond the flipped record", f.ID())
		}
	}
}

// TestConcurrentRegisterSnapshotRecover hammers one store with concurrent
// registrations and snapshots (the shapes a live daemon interleaves), then
// proves a final recovery sees every committed version.  Run under -race
// this also checks the observer/journal/snapshot locking.
func TestConcurrentRegisterSnapshotRecover(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	reg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := s.PersistRegistry(reg); err != nil {
		t.Fatal(err)
	}

	const lineages, depth = 8, 5
	var wg sync.WaitGroup
	for g := 0; g < lineages; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("metric%d", g)
			for v := 1; v <= depth; v++ {
				if _, err := reg.Register(name, chainFormat(t, name, v), "test"); err != nil {
					t.Errorf("%s v%d: %v", name, v, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Snapshot(reg); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := s.Err(); err != nil {
		t.Fatalf("observer path failed: %v", err)
	}
	s.Close()

	s2 := openTest(t, dir)
	reg2 := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := s2.RecoverRegistry(reg2); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < lineages; g++ {
		name := fmt.Sprintf("metric%d", g)
		l, err := reg2.Lineage(name)
		if err != nil {
			t.Fatalf("lineage %s lost: %v", name, err)
		}
		if l.Len() != depth {
			t.Fatalf("lineage %s recovered %d versions, want %d", name, l.Len(), depth)
		}
	}
}
