// Package store implements the persistent tier of the metadata path: a
// disk-backed content-addressed store (CAS) for canonical format bytes and
// fetched metadata documents, plus an append-only journal and snapshot that
// make a schema registry's lineage histories, compatibility policies, and
// head decisions survive process restarts.
//
// The paper's central economy is paying the metadata cost once and
// amortizing it across a run; without persistence every restart re-pays the
// Remote Discovery Multiplier per format.  The store closes that hole:
//
//   - Blobs are keyed by the same 64-bit FNV-1a content hash that names
//     formats (meta.FormatID), so a format blob's key IS its FormatID and
//     any blob is self-verifying on read.  Writes go to a temp file in the
//     same directory and are renamed into place, so a crash never leaves a
//     torn blob under a valid key.
//   - Each format blob carries a plan manifest (plans/<id>.json): the
//     compiled-plan metadata — name, platform, layout facts, provenance —
//     that lets a cold start enumerate and filter thousands of stored
//     formats without parsing every blob.
//   - Fetched metadata documents are indexed by URL (docs/<urlhash>.json)
//     with their payload deduplicated into the CAS, giving
//     discovery.Repository a persistent cache tier: a cold start warms
//     every known document from local disk and pays zero remote fetches.
//   - The registry journal (journal) records every lineage append and
//     policy change as a CRC-framed record; the snapshot (snapshot.xml)
//     is the full-body lineage document inside a checksummed envelope.
//     Recovery tolerates a truncated journal tail (replay stops at the
//     last clean record and the tail is cut) and a torn snapshot (fall
//     back to the previous snapshot plus journal replay).  Replay is
//     idempotent, so the journal/snapshot overlap after compaction races
//     or crashes is harmless.
//
// Layout under the store directory:
//
//	blobs/<hh>/<16-hex>   content-addressed blobs (hh = first hash byte)
//	plans/<16-hex>.json   per-format plan manifests
//	docs/<16-hex>.json    per-URL document index entries
//	journal               append-only registry journal
//	snapshot.xml          newest registry snapshot (envelope-framed)
//	snapshot.prev         previous snapshot, the torn-snapshot fallback
package store

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
)

// maxBlobSize bounds one stored blob; metadata documents and canonical
// formats are small, so anything larger is corruption or abuse.
const maxBlobSize = 8 << 20

// Store is a disk-backed content-addressed store rooted at one directory.
// It is safe for concurrent use: blob writes are independent temp+rename
// operations, and journal appends serialise on an internal mutex.
type Store struct {
	dir      string
	syncEach bool

	metrics *obs.Registry
	stats   storeStats

	mu      sync.Mutex // guards the journal file and snapshot rotation
	journal *os.File

	// err latches the first persistence failure on the observer path,
	// which has no error return (see Err).
	err atomic.Pointer[error]
}

type storeStats struct {
	blobPuts      *obs.Counter // store_blob_put_total: new blobs written
	blobDedup     *obs.Counter // store_blob_dedup_total: puts satisfied by an existing blob
	blobGets      *obs.Counter // store_blob_get_total: blob reads served
	blobCorrupt   *obs.Counter // store_blob_corrupt_total: blobs failing content-hash verification
	docPuts       *obs.Counter // store_doc_put_total: document index writes
	docHits       *obs.Counter // store_doc_hit_total: document loads served
	journalRecs   *obs.Counter // store_journal_record_total: records appended
	journalErrs   *obs.Counter // store_journal_error_total: failed appends (observer path)
	journalTrunc  *obs.Counter // store_journal_truncated_total: torn tails cut at open
	snapFallbacks *obs.Counter // store_snapshot_fallback_total: torn snapshots skipped at recovery
	recovered     *obs.Counter // store_recover_version_total: lineage versions recovered
}

// Option configures a Store.
type Option func(*Store)

// WithSync controls whether blob writes and journal appends fsync before
// returning (default true).  Disabling trades crash durability for write
// throughput — reasonable for caches, wrong for the registry journal.
func WithSync(sync bool) Option {
	return func(s *Store) { s.syncEach = sync }
}

// WithMetricsRegistry directs the store's metrics into reg instead of the
// process-wide obs.Default() registry.
func WithMetricsRegistry(reg *obs.Registry) Option {
	return func(s *Store) { s.metrics = reg }
}

// Open opens (creating if necessary) the store rooted at dir.  Leftover
// temp files from crashed writes are swept, and a torn journal tail is
// truncated to the last clean record so subsequent appends extend a
// consistent log.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{dir: dir, syncEach: true, metrics: obs.Default()}
	for _, o := range opts {
		o(s)
	}
	m := s.metrics
	s.stats = storeStats{
		blobPuts:      m.Counter("store_blob_put_total"),
		blobDedup:     m.Counter("store_blob_dedup_total"),
		blobGets:      m.Counter("store_blob_get_total"),
		blobCorrupt:   m.Counter("store_blob_corrupt_total"),
		docPuts:       m.Counter("store_doc_put_total"),
		docHits:       m.Counter("store_doc_hit_total"),
		journalRecs:   m.Counter("store_journal_record_total"),
		journalErrs:   m.Counter("store_journal_error_total"),
		journalTrunc:  m.Counter("store_journal_truncated_total"),
		snapFallbacks: m.Counter("store_snapshot_fallback_total"),
		recovered:     m.Counter("store_recover_version_total"),
	}
	for _, sub := range []string{"", "blobs", "plans", "docs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s.sweepTemp()
	if err := s.openJournal(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close closes the journal file.  Blobs need no teardown.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// Err returns the first persistence failure recorded on the observer path
// (journal appends and blob writes triggered by registry mutations have no
// error return), or nil.  A daemon can poll this to surface a dying disk.
func (s *Store) Err() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *Store) noteErr(err error) {
	s.stats.journalErrs.Inc()
	s.err.CompareAndSwap(nil, &err)
}

// sweepTemp removes temp files left by writes that crashed before rename.
// A temp file is never referenced by any key, so sweeping is always safe.
// It goes by directory entries alone: every Open walks the whole blob tree,
// and an lstat per blob would be most of the cost.
func (s *Store) sweepTemp() {
	_ = filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			os.Remove(path)
		}
		return nil
	})
}

// HashBytes returns the store key for a blob: FNV-1a 64 over its content —
// the same function meta.Format.ID applies to canonical format bytes, so a
// format blob's key is its FormatID.
func HashBytes(data []byte) meta.FormatID {
	h := fnv.New64a()
	h.Write(data)
	return meta.FormatID(h.Sum64())
}

func (s *Store) blobPath(id meta.FormatID) string {
	hex := id.String()
	return filepath.Join(s.dir, "blobs", hex[:2], hex)
}

// PutBlob stores data under its content hash.  Putting content already in
// the store is a cheap no-op (content-addressing makes dedup free).  The
// write is crash-safe: temp file in the destination directory, then rename.
func (s *Store) PutBlob(data []byte) (meta.FormatID, error) {
	if len(data) > maxBlobSize {
		return 0, fmt.Errorf("store: blob exceeds %d bytes", maxBlobSize)
	}
	id := HashBytes(data)
	path := s.blobPath(id)
	if _, err := os.Stat(path); err == nil {
		s.stats.blobDedup.Inc()
		return id, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := s.writeFileAtomic(path, data); err != nil {
		return 0, err
	}
	s.stats.blobPuts.Inc()
	return id, nil
}

// writeFileAtomic writes data to path via a same-directory temp file and
// rename, optionally fsyncing before the rename (WithSync).
func (s *Store) writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if s.syncEach {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("store: syncing %s: %w", path, err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// GetBlob returns the blob stored under id, verifying its content hash: a
// blob that does not hash back to its key (disk corruption) is an error,
// never silently served.
func (s *Store) GetBlob(id meta.FormatID) ([]byte, error) {
	data, err := os.ReadFile(s.blobPath(id))
	if err != nil {
		return nil, fmt.Errorf("store: blob %s: %w", id, err)
	}
	if HashBytes(data) != id {
		s.stats.blobCorrupt.Inc()
		return nil, fmt.Errorf("store: blob %s corrupt: content hashes to %s", id, HashBytes(data))
	}
	s.stats.blobGets.Inc()
	return data, nil
}

// HasBlob reports whether a blob is stored under id.
func (s *Store) HasBlob(id meta.FormatID) bool {
	_, err := os.Stat(s.blobPath(id))
	return err == nil
}

// PlanMeta is the compiled-plan manifest stored beside each format blob:
// the facts a marshal-plan compiler needs as input (layout, platform,
// field count) plus provenance, available to a cold start without parsing
// the canonical bytes.
type PlanMeta struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	Platform    string `json:"platform"`
	Fields      int    `json:"fields"`
	Size        int    `json:"size"`
	Align       int    `json:"align"`
	BigEndian   bool   `json:"big_endian"`
	PointerSize int    `json:"pointer_size"`
	Source      string `json:"source,omitempty"`
	StoredAt    int64  `json:"stored_at"` // unix nanoseconds
}

func (s *Store) planPath(id meta.FormatID) string {
	return filepath.Join(s.dir, "plans", id.String()+".json")
}

// PutFormat stores a format's canonical bytes in the CAS and writes its
// plan manifest.  The returned ID is the format's content hash — the same
// value f.ID() computes.  Idempotent.
func (s *Store) PutFormat(f *meta.Format, source string) (meta.FormatID, error) {
	id, err := s.PutBlob(f.Canonical())
	if err != nil {
		return 0, err
	}
	planPath := s.planPath(id)
	if _, err := os.Stat(planPath); err == nil {
		return id, nil
	}
	pm := PlanMeta{
		ID: id.String(), Name: f.Name, Platform: f.Platform,
		Fields: len(f.Fields), Size: f.Size, Align: f.Align,
		BigEndian: f.BigEndian, PointerSize: f.PointerSize,
		Source: source, StoredAt: time.Now().UnixNano(),
	}
	data, err := json.Marshal(pm)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := s.writeFileAtomic(planPath, data); err != nil {
		return 0, err
	}
	return id, nil
}

// GetFormat loads and parses the canonical format stored under id.  The
// parse re-validates the format, and GetBlob verified the content hash, so
// a returned format is exactly what was stored.
func (s *Store) GetFormat(id meta.FormatID) (*meta.Format, error) {
	data, err := s.GetBlob(id)
	if err != nil {
		return nil, err
	}
	f, err := meta.ParseCanonical(data)
	if err != nil {
		return nil, fmt.Errorf("store: blob %s: %w", id, err)
	}
	return f, nil
}

// PlanMetaFor returns the plan manifest stored for a format blob, if any.
func (s *Store) PlanMetaFor(id meta.FormatID) (PlanMeta, bool) {
	data, err := os.ReadFile(s.planPath(id))
	if err != nil {
		return PlanMeta{}, false
	}
	var pm PlanMeta
	if err := json.Unmarshal(data, &pm); err != nil {
		return PlanMeta{}, false
	}
	return pm, true
}

// FormatIDs lists every format blob in the store (every blob with a plan
// manifest), in no particular order — the cold-start enumeration.
func (s *Store) FormatIDs() ([]meta.FormatID, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "plans"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	out := make([]meta.FormatID, 0, len(entries))
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".json")
		if len(name) != 16 || name == e.Name() {
			continue
		}
		id, err := strconv.ParseUint(name, 16, 64)
		if err != nil {
			continue
		}
		out = append(out, meta.FormatID(id))
	}
	return out, nil
}
