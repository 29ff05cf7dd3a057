package conform

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/registry"
	"github.com/open-metadata/xmit/internal/store"
	"github.com/open-metadata/xmit/internal/xsd"
)

// SeedFuzzCorpora writes generator-derived seed corpora for the repo's
// fuzz targets under root (the repository root): format-metadata XML for
// the dom parser, the same formats as XML Schema documents for the schema
// translator, PBIO wire bodies for the body decoder, broker control
// lines built from generated names, gossiped lineage documents for the
// federation merge path, and case seeds for this package's own
// FuzzRoundTrip.  Seeding the fuzzers with structures the generator
// considers interesting (shared length fields, markup-hostile strings,
// boundary scalars) starts each CI fuzz pass deep inside the input space
// instead of at `[]byte("0")`.
func SeedFuzzCorpora(root string, n int) error {
	h := NewHarness()
	type target struct {
		dir     string
		entries []string
	}
	targets := map[string]*target{
		"dom":       {dir: filepath.Join(root, "internal", "dom", "testdata", "fuzz", "FuzzParse")},
		"xsd":       {dir: filepath.Join(root, "internal", "xsd", "testdata", "fuzz", "FuzzSchema")},
		"pbio":      {dir: filepath.Join(root, "internal", "pbio", "testdata", "fuzz", "FuzzDecodeBody")},
		"echan":     {dir: filepath.Join(root, "internal", "echan", "testdata", "fuzz", "FuzzParseCommand")},
		"conform":   {dir: filepath.Join(root, "internal", "conform", "testdata", "fuzz", "FuzzRoundTrip")},
		"discovery": {dir: filepath.Join(root, "internal", "discovery", "testdata", "fuzz", "FuzzMergeLineages")},
		"journal":   {dir: filepath.Join(root, "internal", "store", "testdata", "fuzz", "FuzzJournal")},
		"snapshot":  {dir: filepath.Join(root, "internal", "store", "testdata", "fuzz", "FuzzSnapshot")},
	}

	for i := 0; i < n; i++ {
		caseSeed := GoldenSeed + int64(i)
		s, tree := GenCase(caseSeed)
		cs, err := s.Compile(h.Plats)
		if err != nil {
			return fmt.Errorf("conform: fuzz seed %d: %w", caseSeed, err)
		}
		targets["dom"].entries = append(targets["dom"].entries, bytesEntry([]byte(s.XML())))
		for _, p := range h.Plats {
			// The first platform whose layout the XML Schema builtins can
			// describe.
			if doc, err := xsd.FromFormat(cs.Format(p.Name)); err == nil {
				targets["xsd"].entries = append(targets["xsd"].entries, bytesEntry([]byte(doc.String())))
				break
			}
		}
		for _, p := range h.Plats {
			body, err := h.Drv[0].Encode(cs, cs.Format(p.Name), tree)
			if err != nil {
				return fmt.Errorf("conform: fuzz seed %d on %s: %w", caseSeed, p.Name, err)
			}
			targets["pbio"].entries = append(targets["pbio"].entries, bytesEntry(body))
		}
		targets["echan"].entries = append(targets["echan"].entries,
			stringEntry("CREATE "+s.Name),
			stringEntry("SUB "+s.Name+" drop_oldest 8"),
		)
		if idx := s.nonLengthFields(); len(idx) > 0 {
			targets["echan"].entries = append(targets["echan"].entries,
				stringEntry("DERIVE d_"+s.Name+" "+s.Name+" "+s.Fields[idx[0]].Name+" >= 1"))
		}
		targets["conform"].entries = append(targets["conform"].entries,
			"go test fuzz v1\nint64("+strconv.FormatInt(caseSeed, 10)+")\n")

		// A generated evolution chain registered under its policy, snapshot
		// as the full-body lineage document brokers gossip — real structure
		// for the merge fuzzer to mutate (multi-version histories, canonical
		// format bodies, every policy name).
		chr := newRand(caseSeed)
		chPolicy := evolvePolicies[int(abs64(caseSeed))%len(evolvePolicies)]
		chain := RandomEvolveChain(chr, s.Name, DefaultGen, 2, chPolicy)
		lreg := registry.New(registry.WithDefaultPolicy(chPolicy))
		for v, sp := range chain.Specs {
			cs, err := sp.Compile(h.Plats[:1])
			if err != nil {
				return fmt.Errorf("conform: fuzz lineage seed %d v%d: %w", caseSeed, v+1, err)
			}
			if _, err := lreg.Register(sp.Name, cs.Format(h.Plats[0].Name), "seed"); err != nil {
				return fmt.Errorf("conform: fuzz lineage seed %d v%d: %w", caseSeed, v+1, err)
			}
		}
		targets["discovery"].entries = append(targets["discovery"].entries,
			bytesEntry(discovery.MarshalLineages(discovery.SnapshotLineagesFull(lreg))),
			bytesEntry(discovery.MarshalLineages(discovery.SnapshotLineages(lreg))))

		// The store's on-disk formats, built from the same generated
		// lineage: a journal of real append+policy frames (plus a copy with
		// a torn tail, the exact shape crash recovery must truncate) and
		// the checksummed snapshot envelope around the lineage document.
		jb, err := store.AppendJournalRecord(nil, store.JournalRecord{
			Kind: store.RecordPolicy, Lineage: s.Name, Policy: chPolicy.String(),
		})
		if err != nil {
			return fmt.Errorf("conform: fuzz journal seed %d: %w", caseSeed, err)
		}
		jb, err = store.AppendJournalRecord(jb, store.JournalRecord{
			Kind: store.RecordAppend, Lineage: s.Name,
			ID: cs.Format(h.Plats[0].Name).ID(), Source: "seed",
			Adopted: caseSeed%2 == 0, RegisteredAt: time.Unix(0, caseSeed),
		})
		if err != nil {
			return fmt.Errorf("conform: fuzz journal seed %d: %w", caseSeed, err)
		}
		targets["journal"].entries = append(targets["journal"].entries,
			bytesEntry(jb),
			bytesEntry(jb[:len(jb)-3]))
		targets["snapshot"].entries = append(targets["snapshot"].entries,
			bytesEntry(store.EncodeSnapshot(discovery.MarshalLineages(discovery.SnapshotLineagesFull(lreg)))))
	}
	// The three historical disagreement seeds stay in the round-trip corpus
	// forever (xdr enum(8), mpidt boolean(2), xmlwire carriage return).
	for _, seed := range []int64{8, 15, 41} {
		targets["conform"].entries = append(targets["conform"].entries,
			"go test fuzz v1\nint64("+strconv.FormatInt(seed, 10)+")\n")
	}

	for _, tg := range targets {
		if err := os.MkdirAll(tg.dir, 0o755); err != nil {
			return err
		}
		for i, entry := range tg.entries {
			name := filepath.Join(tg.dir, fmt.Sprintf("conform_seed_%03d", i))
			if err := os.WriteFile(name, []byte(entry), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// bytesEntry renders one []byte-typed Go fuzz corpus file.
func bytesEntry(b []byte) string {
	return "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
}

// stringEntry renders one string-typed Go fuzz corpus file.
func stringEntry(s string) string {
	return "go test fuzz v1\nstring(" + strconv.Quote(s) + ")\n"
}
