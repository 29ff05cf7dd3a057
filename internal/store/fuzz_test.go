package store

import (
	"bytes"
	"testing"
)

// FuzzJournal throws arbitrary bytes at the journal decoder and holds it to
// the recovery contract: never panic, report a clean offset that re-encodes
// to exactly the bytes it accepted (so truncating at clean and replaying is
// lossless and idempotent), and flag everything past it as a torn tail.
func FuzzJournal(f *testing.F) {
	seed, err := AppendJournalRecord(nil, JournalRecord{
		Kind: RecordPolicy, Lineage: "metric", Policy: "backward",
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, truncated := DecodeJournal(data)
		if clean < 0 || clean > len(data) {
			t.Fatalf("clean offset %d outside [0, %d]", clean, len(data))
		}
		if truncated == (clean == len(data)) {
			t.Fatalf("truncated=%v with clean=%d of %d bytes", truncated, clean, len(data))
		}
		// Clean records re-encode to exactly the accepted prefix: the
		// journal's encoding is canonical, so replay after a tail cut sees
		// the same records a pre-crash reader saw.
		var enc []byte
		for _, r := range recs {
			var err error
			if enc, err = AppendJournalRecord(enc, r); err != nil {
				t.Fatalf("re-encoding decoded record: %v", err)
			}
		}
		if !bytes.Equal(enc, data[:clean]) {
			t.Fatalf("re-encode of %d records is %d bytes, accepted prefix %d", len(recs), len(enc), clean)
		}
		// And decoding the re-encoding is a fixed point (idempotent replay).
		recs2, clean2, trunc2 := DecodeJournal(enc)
		if len(recs2) != len(recs) || clean2 != len(enc) || trunc2 {
			t.Fatalf("re-decode: %d records, clean %d, truncated %v; want %d, %d, false",
				len(recs2), clean2, trunc2, len(recs), len(enc))
		}
	})
}

// FuzzPack throws arbitrary bytes at the pack loader — the same frame decoder
// FuzzJournal exercises, with the pack's own indexing on top — and holds it
// to the contract Open relies on: never panic, index only bodies that hash
// to their key, report a clean offset that is a whole number of records,
// and index a pack rebuilt from what it kept to exactly the same formats.
func FuzzPack(f *testing.F) {
	var seed []byte
	for _, body := range []string{"XMF\x01one", "XMF\x01two", "XMF\x01one"} { // the third is a repeat
		seed = appendFrame(seed, []byte(body))
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(appendFrame(nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ix packIndex
		clean, fault := ix.load(data)
		if clean < 0 || clean > len(data) {
			t.Fatalf("clean offset %d outside [0, %d]", clean, len(data))
		}
		if (fault == frameOK) != (clean == len(data)) {
			t.Fatalf("fault %d with clean=%d of %d bytes", fault, clean, len(data))
		}
		if len(ix.byID) != len(ix.order) {
			t.Fatalf("index holds %d keys for %d bodies", len(ix.byID), len(ix.order))
		}
		var rebuilt []byte
		for _, e := range ix.order {
			if HashBytes(e.data) != e.id || ix.byID[e.id] != e {
				t.Fatalf("body hashing to %s indexed under %s", HashBytes(e.data), e.id)
			}
			rebuilt = appendFrame(rebuilt, e.data)
		}
		if len(rebuilt) > clean {
			t.Fatalf("%d indexed bodies re-frame to %d bytes, more than the %d accepted", len(ix.order), len(rebuilt), clean)
		}
		var again packIndex
		if clean2, fault2 := again.load(rebuilt); clean2 != len(rebuilt) || fault2 != frameOK || len(again.order) != len(ix.order) {
			t.Fatalf("rebuilt pack: %d formats, clean %d of %d, fault %d; want %d formats",
				len(again.order), clean2, len(rebuilt), fault2, len(ix.order))
		}
		for i, e := range again.order {
			if e.id != ix.order[i].id {
				t.Fatalf("rebuilt pack: format %d is %s, was %s", i, e.id, ix.order[i].id)
			}
		}
	})
}

// FuzzSnapshot holds the snapshot envelope to its torn-detection contract:
// never panic, and accept only inputs that are the canonical encoding of
// their payload — anything else must fail (and recovery then falls back).
func FuzzSnapshot(f *testing.F) {
	f.Add(EncodeSnapshot([]byte("<lineages/>")))
	f.Add(EncodeSnapshot(nil))
	f.Add([]byte("XSNP1junk"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeSnapshot(payload), data) {
			t.Fatalf("accepted %d bytes that are not the canonical envelope of their %d-byte payload",
				len(data), len(payload))
		}
	})
}
