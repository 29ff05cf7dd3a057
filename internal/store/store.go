// Package store implements the persistent tier of the metadata path: the
// canonical bytes of every registered format, fetched metadata documents,
// and an append-only journal and snapshot that make a schema registry's
// lineage histories, compatibility policies, and head decisions survive
// process restarts.
//
// The paper's central economy is paying the metadata cost once and
// amortizing it across a run; without persistence every restart re-pays the
// Remote Discovery Multiplier per format.  The store closes that hole, and
// prices a restart by the catalogue's bytes, not by its number of files:
//
//   - Format bodies live in one append-only pack (formats.pack) of
//     CRC-framed records, keyed by the same 64-bit FNV-1a content hash that
//     names formats (meta.FormatID), so a stored format's key IS its
//     FormatID.  Open reads the pack once, sequentially, into an index;
//     each format is parsed at most once per Open, and registry recovery
//     and the fmtserver catalogue warm share both the bytes and the parse.
//     A new format is one appended record; a known one an index lookup.
//   - Fetched metadata documents are indexed by URL (docs/<urlhash>.json)
//     with their payload deduplicated into a file-per-blob CAS (blobs/),
//     giving discovery.Repository a persistent cache tier: a cold start
//     warms every known document from local disk and pays zero remote
//     fetches.  Blob writes go to a temp file in the same directory and are
//     renamed into place, so a crash never leaves a torn blob under a valid
//     key, and a blob is re-hashed against its key on every read.
//   - The registry journal (journal) records every lineage append and
//     policy change as a CRC-framed record that names its format by content
//     hash; the body is appended to the pack BEFORE the journal record, so
//     every prefix of the journal has its bodies.  The snapshot
//     (snapshot.xml) is the full-body lineage document inside a checksummed
//     envelope.  Recovery tolerates a truncated journal or pack tail (the
//     file ends at the last clean record and the tail is cut) and a torn
//     snapshot (fall back to the previous snapshot plus journal replay).
//     Replay is idempotent, so the journal/snapshot overlap after
//     compaction races or crashes is harmless.
//
// Layout under the store directory:
//
//	formats.pack          every format's canonical bytes, CRC-framed
//	journal               append-only registry journal, same framing
//	snapshot.xml          newest registry snapshot (envelope-framed)
//	snapshot.prev         previous snapshot, the torn-snapshot fallback
//	docs/<16-hex>.json    per-URL document index entries
//	blobs/<hh>/<16-hex>   document payloads (hh = first hash byte)
package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
)

// maxBlobSize bounds one stored blob or format body; metadata documents and
// canonical formats are small, so anything larger is corruption or abuse.
const maxBlobSize = 8 << 20

// Store is a disk-backed content-addressed store rooted at one directory.
// It is safe for concurrent use: blob writes are independent temp+rename
// operations, and pack and journal appends each serialise on a mutex.
type Store struct {
	dir      string
	syncEach bool

	metrics *obs.Registry
	stats   storeStats

	mu      sync.Mutex // guards the journal file and snapshot rotation
	journal *os.File

	packMu  sync.Mutex // guards the pack file and its index; never held with mu
	pack    *os.File
	formats packIndex

	// err latches the first persistence failure on the observer path,
	// which has no error return (see Err).
	err atomic.Pointer[error]
}

type storeStats struct {
	blobPuts      *obs.Counter // store_blob_put_total: new blobs and format bodies written
	blobDedup     *obs.Counter // store_blob_dedup_total: puts satisfied by content already stored
	blobGets      *obs.Counter // store_blob_get_total: blob reads served
	blobCorrupt   *obs.Counter // store_blob_corrupt_total: blobs failing their content hash, pack records failing their CRC
	formatReads   *obs.Counter // store_format_read_total: format bodies read from disk and indexed
	formatParses  *obs.Counter // store_format_parse_total: canonical parses of stored formats
	packTrunc     *obs.Counter // store_pack_truncated_total: torn pack tails cut at open
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

// WithSync controls whether blob writes, pack and journal appends fsync before
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
// temp files from crashed writes are swept, the format pack is read into
// its index, and a torn pack or journal tail is truncated to the last clean
// record so subsequent appends extend a consistent file.  The cost is one
// sequential read of the catalogue's bytes plus a walk over the document
// tier — no file per format is opened, created or listed.
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
		formatReads:   m.Counter("store_format_read_total"),
		formatParses:  m.Counter("store_format_parse_total"),
		packTrunc:     m.Counter("store_pack_truncated_total"),
		docPuts:       m.Counter("store_doc_put_total"),
		docHits:       m.Counter("store_doc_hit_total"),
		journalRecs:   m.Counter("store_journal_record_total"),
		journalErrs:   m.Counter("store_journal_error_total"),
		journalTrunc:  m.Counter("store_journal_truncated_total"),
		snapFallbacks: m.Counter("store_snapshot_fallback_total"),
		recovered:     m.Counter("store_recover_version_total"),
	}
	for _, sub := range []string{"", "blobs", "docs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s.sweepTemp()
	for _, step := range []func() error{s.openPack, s.openJournal} {
		if err := step(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Close closes the journal and the pack.  Blobs need no teardown; formats
// already handed out stay valid.
func (s *Store) Close() error {
	var jerr, perr error
	s.mu.Lock()
	if s.journal != nil {
		jerr = s.journal.Close()
		s.journal = nil
	}
	s.mu.Unlock()
	s.packMu.Lock()
	if s.pack != nil {
		perr = s.pack.Close()
		s.pack = nil
	}
	s.packMu.Unlock()
	return errors.Join(jerr, perr)
}

// Err returns the first persistence failure recorded on the observer path
// (journal and pack appends triggered by registry mutations have no error
// return), or nil.  A daemon can poll this to surface a dying disk.
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
// It goes by directory entries alone, without an lstat per file.
func (s *Store) sweepTemp() {
	_ = filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			os.Remove(path)
		}
		return nil
	})
}

// HashBytes returns the store key for a blob or format body: FNV-1a 64 over
// its content — the same function meta.Format.ID applies to canonical format
// bytes, so a stored format's key is its FormatID.
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
