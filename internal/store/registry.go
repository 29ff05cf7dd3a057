package store

import (
	"fmt"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/registry"
)

// RecoverStats summarises one registry recovery.
type RecoverStats struct {
	Lineages         int  // distinct lineages recovered
	Versions         int  // lineage versions adopted (snapshot + journal)
	SnapshotVersions int  // of those, versions recovered from the snapshot
	JournalRecords   int  // clean journal records replayed
	TruncatedTail    bool // the journal had a torn tail (cut at open)
	SnapshotFallback bool // the newest snapshot was torn; an older one (or none) served
	MissingBlobs     int  // journal appends skipped for lack of a (parseable) format body
}

// RecoverRegistry replays the store's snapshot and journal into reg,
// reconstructing lineage histories, version numbering, and compatibility
// policies exactly as they were committed.  Replay uses the adoption path
// (no policy re-checks — every replayed version was already admitted), so
// a recovered home broker re-derives the same head decisions it made
// before the crash: the same incompatible head fails the same policy check
// with a bit-identical CompatError.
//
// Recovery is tolerant by construction: a torn journal tail stops replay
// at the last clean record, a torn snapshot falls back to the previous one
// (plus the journal, which is only compacted after a snapshot lands), and
// replaying records the snapshot already covered is idempotent.
//
// Call with a freshly created (or at least not-yet-shared) registry, and
// attach the store as observer only after recovery (PersistRegistry does
// both) — otherwise replayed mutations would be re-journaled.
func (s *Store) RecoverRegistry(reg *registry.Registry) (RecoverStats, error) {
	var st RecoverStats

	docs, fallback := s.readSnapshotDocs()
	st.SnapshotFallback = fallback
	if len(docs) > 0 {
		n, err := discovery.MergeLineages(reg, docs, "store")
		if err != nil {
			return st, fmt.Errorf("store: replaying snapshot: %w", err)
		}
		st.SnapshotVersions = n
		st.Versions += n
	}

	recs, truncated, err := s.ReadJournal()
	if err != nil {
		return st, err
	}
	st.TruncatedTail = truncated
	st.JournalRecords = len(recs)
	// Records are grouped by lineage (in order within each) and replayed
	// as one bulk apply; only records of the same lineage depend on each
	// other's order.
	var batch []registry.Update
	slot := map[string]int{} // lineage -> its index in batch
	queue := func(lineage string, m registry.Mutation) {
		i, ok := slot[lineage]
		if !ok {
			i = len(batch)
			slot[lineage] = i
			batch = append(batch, registry.Update{Lineage: lineage})
		}
		batch[i].Mutations = append(batch[i].Mutations, m)
	}
	// A lineage whose journal replay hit a missing format body must not
	// adopt later appends: that would renumber versions.  Broken lineages
	// stop replaying (and will heal from a peer's full document, exactly
	// like a gossip merge that arrived without bodies).
	broken := map[string]bool{}
	for _, r := range recs {
		switch r.Kind {
		case RecordPolicy:
			p, err := registry.ParsePolicy(r.Policy)
			if err != nil {
				continue // an unknown policy name in an old journal is skipped, not fatal
			}
			queue(r.Lineage, registry.Mutation{Policy: p})
		case RecordAppend:
			if broken[r.Lineage] {
				continue
			}
			if l, err := reg.Lineage(r.Lineage); err == nil {
				if _, ok := l.ResolveID(r.ID); ok {
					continue // snapshot already covered this append
				}
			}
			f, err := s.GetFormat(r.ID)
			if err != nil {
				st.MissingBlobs++
				broken[r.Lineage] = true
				continue
			}
			queue(r.Lineage, registry.Mutation{Format: f, Source: r.Source})
		}
	}
	st.Versions += reg.Apply(batch)
	st.Lineages = len(reg.Lineages())
	s.stats.recovered.Add(int64(st.Versions))
	return st, nil
}

// PersistRegistry wires a registry to the store: recover persisted state
// into reg, then attach the store as the registry's mutation observer so
// every subsequent lineage append and policy change is journaled (bodies
// into the pack first, then the journal record).  This is the one-call
// setup a daemon uses for `-store`.
func (s *Store) PersistRegistry(reg *registry.Registry) (RecoverStats, error) {
	st, err := s.RecoverRegistry(reg)
	if err != nil {
		return st, err
	}
	reg.Observe(s)
	return st, nil
}

// Snapshot writes a snapshot of reg's current lineage state (the full-body
// lineage document) and compacts the journal.  Also ensures every version's
// canonical bytes are in the pack, so it stays a superset of what the
// snapshot references.
func (s *Store) Snapshot(reg *registry.Registry) error {
	for _, name := range reg.Lineages() {
		l, err := reg.Lineage(name)
		if err != nil {
			continue
		}
		for _, v := range l.Versions() {
			if _, err := s.PutFormat(v.Format); err != nil {
				return err
			}
		}
	}
	return s.writeSnapshotDoc(func() []byte {
		return discovery.MarshalLineages(discovery.SnapshotLineagesFull(reg))
	})
}

// LineageAppended implements registry.Observer: the version's canonical
// bytes go to the pack first, then the journal record referencing them —
// so a journal record always has its body, whatever the crash point.
// Failures latch into Err (the observer path has no error return).
func (s *Store) LineageAppended(lineage string, v registry.Version, adopted bool) {
	if _, err := s.PutFormat(v.Format); err != nil {
		s.noteErr(err)
		return
	}
	err := s.appendJournal(JournalRecord{
		Kind: RecordAppend, Lineage: lineage, ID: v.ID,
		Source: v.Source, Adopted: adopted, RegisteredAt: v.RegisteredAt,
	})
	if err != nil {
		s.noteErr(err)
	}
}

// PolicyChanged implements registry.Observer.
func (s *Store) PolicyChanged(lineage string, p registry.Policy) {
	err := s.appendJournal(JournalRecord{Kind: RecordPolicy, Lineage: lineage, Policy: p.String()})
	if err != nil {
		s.noteErr(err)
	}
}
