package store

import (
	"fmt"
	"path/filepath"
	"sync"

	"github.com/open-metadata/xmit/internal/meta"
)

// The format pack (formats.pack) holds every stored format's canonical
// bytes, one CRC-framed record each (see frame.go; the payload is exactly
// the canonical bytes).  Open reads it once, sequentially, into an index
// keyed by content hash: the key is computed from the bytes as the record is
// indexed, so a body cannot sit under a key it does not hash to, and the
// frame's CRC is what catches a body that rotted on disk.  A restart costs
// one read of the catalogue's bytes however many formats it holds; a format
// is parsed at most once per Open, by whichever of registry recovery and
// catalogue warm asks first, and both get the same *meta.Format.

const packName = "formats.pack"

// packedFormat is one indexed format body.
type packedFormat struct {
	id   meta.FormatID
	data []byte // canonical bytes; aliases the image read at Open, never written

	once sync.Once
	f    *meta.Format
	err  error
}

// packIndex is the in-memory view of the pack: every body by content hash,
// and in file order.
type packIndex struct {
	byID  map[meta.FormatID]*packedFormat
	order []*packedFormat
}

// add indexes one body under id, its content hash.  A body already indexed
// is not indexed twice.
func (ix *packIndex) add(id meta.FormatID, body []byte) {
	if _, ok := ix.byID[id]; ok {
		return
	}
	if ix.byID == nil {
		ix.byID = map[meta.FormatID]*packedFormat{}
	}
	e := &packedFormat{id: id, data: body}
	ix.byID[id] = e
	ix.order = append(ix.order, e)
}

// load indexes every clean record of a pack image, which the index keeps
// (bodies alias it).  clean is the offset just past the last clean record;
// fault says what the bytes beyond it look like.  It never panics on any
// input.
func (ix *packIndex) load(data []byte) (clean int, fault frameFault) {
	rest := data
	for len(rest) > 0 {
		body, next, f := nextFrame(rest, maxBlobSize)
		if f != frameOK {
			fault = f
			break
		}
		ix.add(HashBytes(body), body)
		rest = next
	}
	return len(data) - len(rest), fault
}

func (s *Store) packPath() string { return filepath.Join(s.dir, packName) }

// openPack reads the pack into the index, cuts a torn tail, and opens the
// file for appending.  A record that is all there but fails its CRC is
// corruption rather than a crash; the pack still ends at the last record
// that checks out (journal records whose bodies lay beyond it recover as
// missing and heal from a peer), and the mismatch is counted.
func (s *Store) openPack() error {
	f, cut, err := openLog(s.packPath(), func(data []byte) int {
		clean, fault := s.formats.load(data)
		if fault == frameCorrupt {
			s.stats.blobCorrupt.Inc()
		}
		return clean
	})
	if err != nil {
		return err
	}
	if cut {
		s.stats.packTrunc.Inc()
	}
	s.stats.formatReads.Add(int64(len(s.formats.order)))
	s.pack = f
	return nil
}

// PutFormat stores a format's canonical bytes under their content hash —
// the value f.ID() computes — and returns it.  A format already stored
// costs an index lookup; a new one is one appended record, on disk (fsynced
// under WithSync) before PutFormat returns and therefore before any journal
// record that references it.
func (s *Store) PutFormat(f *meta.Format) (meta.FormatID, error) {
	data := f.Canonical()
	if len(data) > maxBlobSize {
		return 0, fmt.Errorf("store: format exceeds %d bytes", maxBlobSize)
	}
	id := HashBytes(data)
	s.packMu.Lock()
	defer s.packMu.Unlock()
	if _, ok := s.formats.byID[id]; ok {
		s.stats.blobDedup.Inc()
		return id, nil
	}
	if s.pack == nil {
		return 0, fmt.Errorf("store: format pack closed")
	}
	if err := appendLog(s.pack, data, s.syncEach); err != nil {
		return 0, err
	}
	s.formats.add(id, data)
	s.stats.blobPuts.Inc()
	return id, nil
}

// parsed returns e's format, parsing the canonical bytes the first time.
func (s *Store) parsed(e *packedFormat) (*meta.Format, error) {
	e.once.Do(func() {
		s.stats.formatParses.Inc()
		if e.f, e.err = meta.ParseCanonical(e.data); e.err != nil {
			e.err = fmt.Errorf("store: format %s: %w", e.id, e.err)
		}
	})
	return e.f, e.err
}

// GetFormat returns the format stored under id.  The parse (which
// re-validates the format) happens once per Open; every caller gets the same
// *meta.Format and must treat it as read-only.
func (s *Store) GetFormat(id meta.FormatID) (*meta.Format, error) {
	s.packMu.Lock()
	e, ok := s.formats.byID[id]
	s.packMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("store: format %s not stored", id)
	}
	return s.parsed(e)
}

// Formats calls yield for every stored format, in the order they were
// stored, until it returns false: the content hash, the canonical bytes and
// the parsed format — the same one GetFormat returns, so a pass over the
// store after registry recovery parses nothing twice.  The bytes and the
// format are shared and read-only.  Bodies that do not parse as a format are
// skipped.
func (s *Store) Formats(yield func(id meta.FormatID, canonical []byte, f *meta.Format) bool) {
	s.packMu.Lock()
	order := s.formats.order // appends never disturb this prefix
	s.packMu.Unlock()
	for _, e := range order {
		f, err := s.parsed(e)
		if err != nil {
			continue
		}
		if !yield(e.id, e.data, f) {
			return
		}
	}
}
