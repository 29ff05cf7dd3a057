package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/open-metadata/xmit/internal/meta"
)

// The document tier persists fetched metadata documents for
// discovery.Repository (which consumes it through the discovery.DocStore
// interface, keeping the import pointing this way).  Each URL gets a small
// JSON index entry under docs/ recording the URL, its payload's content
// hash, and the HTTP validators; the payload itself lives in the blob CAS
// (blobs/<hh>/<16-hex>, one file per distinct payload — documents are few
// and may be large, unlike formats, which live in the pack), so two URLs
// serving identical bytes share one blob.  Index entries are
// written temp+rename like everything else.

type docEntry struct {
	URL          string `json:"url"`
	Blob         string `json:"blob"` // 16-hex content hash of the payload
	ETag         string `json:"etag,omitempty"`
	LastModified string `json:"last_modified,omitempty"`
	FetchedAt    int64  `json:"fetched_at"` // unix nanoseconds
}

func (s *Store) docPath(url string) string {
	return filepath.Join(s.dir, "docs", HashBytes([]byte(url)).String()+".json")
}

// StoreDocument persists one fetched document: payload into the CAS,
// index entry (URL, content hash, validators, fetch time) under docs/.
func (s *Store) StoreDocument(url string, data []byte, etag, lastModified string, fetchedAt time.Time) error {
	blob, err := s.PutBlob(data)
	if err != nil {
		return err
	}
	e := docEntry{
		URL: url, Blob: blob.String(), ETag: etag,
		LastModified: lastModified, FetchedAt: fetchedAt.UnixNano(),
	}
	buf, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.writeFileAtomic(s.docPath(url), buf); err != nil {
		return err
	}
	s.stats.docPuts.Inc()
	return nil
}

// LoadDocument returns the persisted copy of a URL's document, if any.
// The payload is verified against its content hash on the way out; an
// index entry whose URL does not match (a hash collision) or whose blob is
// missing or corrupt is a miss, never a wrong answer.
func (s *Store) LoadDocument(url string) (data []byte, etag, lastModified string, fetchedAt time.Time, ok bool) {
	buf, err := os.ReadFile(s.docPath(url))
	if err != nil {
		return nil, "", "", time.Time{}, false
	}
	var e docEntry
	if json.Unmarshal(buf, &e) != nil || e.URL != url {
		return nil, "", "", time.Time{}, false
	}
	id, err := parseID(e.Blob)
	if err != nil {
		return nil, "", "", time.Time{}, false
	}
	data, err = s.GetBlob(id)
	if err != nil {
		return nil, "", "", time.Time{}, false
	}
	s.stats.docHits.Inc()
	return data, e.ETag, e.LastModified, time.Unix(0, e.FetchedAt), true
}

// Documents lists every URL with a persisted document — the warm-cache
// enumeration a cold-starting Repository iterates.
func (s *Store) Documents() []string {
	entries, err := os.ReadDir(filepath.Join(s.dir, "docs"))
	if err != nil {
		return nil
	}
	var out []string
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(s.dir, "docs", ent.Name()))
		if err != nil {
			continue
		}
		var e docEntry
		if json.Unmarshal(buf, &e) == nil && e.URL != "" {
			out = append(out, e.URL)
		}
	}
	return out
}

// parseID parses the 16-hex form of a content hash.
func parseID(hex string) (meta.FormatID, error) {
	if len(hex) != 16 {
		return 0, fmt.Errorf("store: %q is not a 16-hex content hash", hex)
	}
	id, err := strconv.ParseUint(hex, 16, 64)
	return meta.FormatID(id), err
}
