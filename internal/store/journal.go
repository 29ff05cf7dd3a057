package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/open-metadata/xmit/internal/meta"
)

// The registry journal is an append-only file of CRC-framed records (see
// frame.go).  A record's payload is:
//
//	byte kind (1 = append, 2 = policy)
//	kind 1: u8 flags (bit0: adopted) | str lineage | u64 format ID |
//	        str source | i64 registration unix-nanos
//	kind 2: str lineage | str policy wire name
//
// where str is a u16 big-endian length followed by that many bytes.  A
// frame that checks out but whose payload underflows ends the journal just
// as a torn one does.  Everything before it replays; the tail is cut on
// open so later appends extend a consistent log.
//
// A journal record for a lineage append references the format by content
// hash only — the body lives in the format pack, appended *before* the
// journal record, so a record present in the journal always has its body
// (a crash between the two leaves an unreferenced body, which dedup makes
// harmless).

const (
	journalName      = "journal"
	maxJournalRecord = 1 << 20
)

// RecordKind discriminates journal records.
type RecordKind byte

const (
	// RecordAppend is a version appended to a lineage (Register or Adopt).
	RecordAppend RecordKind = 1
	// RecordPolicy is a committed compatibility-policy change.
	RecordPolicy RecordKind = 2
)

// JournalRecord is one decoded registry-journal record.
type JournalRecord struct {
	Kind    RecordKind
	Lineage string
	// Append fields.
	ID           meta.FormatID
	Source       string
	Adopted      bool
	RegisteredAt time.Time
	// Policy field (wire name, see registry.ParsePolicy).
	Policy string
}

const flagAdopted = 1 << 0

// AppendJournalRecord appends the framed encoding of r to buf.
func AppendJournalRecord(buf []byte, r JournalRecord) ([]byte, error) {
	payload, err := encodeJournalPayload(r)
	if err != nil {
		return nil, err
	}
	return appendFrame(buf, payload), nil
}

func encodeJournalPayload(r JournalRecord) ([]byte, error) {
	payload := []byte{byte(r.Kind)}
	switch r.Kind {
	case RecordAppend:
		var flags byte
		if r.Adopted {
			flags |= flagAdopted
		}
		payload = append(payload, flags)
		payload = appendJStr(payload, r.Lineage)
		payload = binary.BigEndian.AppendUint64(payload, uint64(r.ID))
		payload = appendJStr(payload, r.Source)
		payload = binary.BigEndian.AppendUint64(payload, uint64(r.RegisteredAt.UnixNano()))
	case RecordPolicy:
		payload = appendJStr(payload, r.Lineage)
		payload = appendJStr(payload, r.Policy)
	default:
		return nil, fmt.Errorf("store: unknown journal record kind %d", r.Kind)
	}
	if len(payload) > maxJournalRecord {
		return nil, fmt.Errorf("store: journal record exceeds %d bytes", maxJournalRecord)
	}
	return payload, nil
}

func appendJStr(buf []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	buf = append(buf, byte(len(s)>>8), byte(len(s)))
	return append(buf, s...)
}

// DecodeJournal decodes every clean record in data.  clean is the byte
// offset just past the last clean record; truncated reports whether bytes
// past clean exist but do not form a valid record (a torn tail — or
// corruption, which is treated the same way: the journal ends at the last
// record that checks out).  DecodeJournal never panics on any input.
func DecodeJournal(data []byte) (recs []JournalRecord, clean int, truncated bool) {
	rest := data
	for len(rest) > 0 {
		payload, next, fault := nextFrame(rest, maxJournalRecord)
		if fault != frameOK {
			break
		}
		rec, ok := decodeJournalPayload(payload)
		if !ok {
			break
		}
		recs = append(recs, rec)
		rest = next
	}
	return recs, len(data) - len(rest), len(rest) > 0
}

func decodeJournalPayload(p []byte) (JournalRecord, bool) {
	if len(p) < 1 {
		return JournalRecord{}, false
	}
	r := JournalRecord{Kind: RecordKind(p[0])}
	p = p[1:]
	var ok bool
	switch r.Kind {
	case RecordAppend:
		if len(p) < 1 {
			return JournalRecord{}, false
		}
		r.Adopted = p[0]&flagAdopted != 0
		p = p[1:]
		if r.Lineage, p, ok = readJStr(p); !ok {
			return JournalRecord{}, false
		}
		if len(p) < 8 {
			return JournalRecord{}, false
		}
		r.ID = meta.FormatID(binary.BigEndian.Uint64(p))
		p = p[8:]
		if r.Source, p, ok = readJStr(p); !ok {
			return JournalRecord{}, false
		}
		if len(p) != 8 {
			return JournalRecord{}, false
		}
		r.RegisteredAt = time.Unix(0, int64(binary.BigEndian.Uint64(p)))
	case RecordPolicy:
		if r.Lineage, p, ok = readJStr(p); !ok {
			return JournalRecord{}, false
		}
		if r.Policy, p, ok = readJStr(p); !ok || len(p) != 0 {
			return JournalRecord{}, false
		}
	default:
		return JournalRecord{}, false
	}
	return r, true
}

func readJStr(p []byte) (string, []byte, bool) {
	if len(p) < 2 {
		return "", nil, false
	}
	n := int(p[0])<<8 | int(p[1])
	if len(p)-2 < n {
		return "", nil, false
	}
	return string(p[2 : 2+n]), p[2+n:], true
}

func (s *Store) journalPath() string { return filepath.Join(s.dir, journalName) }

// openJournal opens the journal for appending, first cutting any torn tail.
func (s *Store) openJournal() error {
	f, cut, err := openLog(s.journalPath(), func(data []byte) int {
		_, clean, _ := DecodeJournal(data)
		return clean
	})
	if err != nil {
		return err
	}
	if cut {
		s.stats.journalTrunc.Inc()
	}
	s.mu.Lock()
	s.journal = f
	s.mu.Unlock()
	return nil
}

// appendJournal frames and appends one record, fsyncing when WithSync is on.
func (s *Store) appendJournal(r JournalRecord) error {
	payload, err := encodeJournalPayload(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return fmt.Errorf("store: journal closed")
	}
	if err := appendLog(s.journal, payload, s.syncEach); err != nil {
		return err
	}
	s.stats.journalRecs.Inc()
	return nil
}

// ReadJournal decodes the on-disk journal.  Exposed for recovery, tests,
// and the coldstart bench.
func (s *Store) ReadJournal() (recs []JournalRecord, truncated bool, err error) {
	data, err := os.ReadFile(s.journalPath())
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	recs, _, truncated = DecodeJournal(data)
	return recs, truncated, nil
}
