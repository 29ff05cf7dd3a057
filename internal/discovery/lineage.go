package discovery

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"github.com/open-metadata/xmit/internal/dom"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/registry"
)

// Lineage discovery: a daemon with a schema registry serves a small XML
// document at a well-known HTTP path describing every format lineage it
// tracks — name, compatibility policy, and the content-derived ID of each
// version, oldest first.  Consumers fetch it through Repository, so the
// ETag/TTL/stale-if-error cache stack and singleflight coalescing apply to
// lineage resolution exactly as they do to wire formats: metadata about
// format evolution travels the same open channel as the formats themselves.
//
// The document is ordinary XMIT metadata:
//
//	<lineages>
//	  <lineage name="sensor" policy="backward">
//	    <version n="1" id="0x0123456789abcdef"/>
//	    <version n="2" id="0xfedcba9876543210"/>
//	  </lineage>
//	</lineages>
//
// A version may additionally carry the format's canonical bytes, hex-encoded
// in a <canon> child.  That full form is what brokers gossip to each other
// (and what MergeLineages consumes): with the bodies present, a remote
// broker can replay a pinned view's negotiated announcement without ever
// having seen the original format frame.
//
//	<version n="1" id="0x0123456789abcdef">
//	  <canon>584d4631...</canon>
//	</version>

// WellKnownLineagePath is the HTTP path a registry-bearing daemon serves
// its lineage document on.
const WellKnownLineagePath = "/.well-known/xmit-lineages"

// LineageDoc describes one lineage in a lineage discovery document.
type LineageDoc struct {
	Name       string
	Policy     registry.Policy
	VersionIDs []meta.FormatID // oldest first; the last entry is the head
	// Formats, when non-nil, is parallel to VersionIDs and carries the
	// canonical format bodies (entries may individually be nil).  Documents
	// without bodies describe a lineage; documents with bodies replicate it.
	Formats []*meta.Format
}

// MarshalLineages renders a lineage discovery document, lineages sorted by
// name.
func MarshalLineages(docs []LineageDoc) []byte {
	sorted := append([]LineageDoc(nil), docs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	root := &dom.Element{Local: "lineages"}
	for _, d := range sorted {
		el := &dom.Element{
			Local: "lineage",
			Attrs: []dom.Attr{
				{Local: "name", Value: d.Name},
				{Local: "policy", Value: d.Policy.String()},
			},
			Parent: root,
		}
		for i, id := range d.VersionIDs {
			ver := &dom.Element{
				Local: "version",
				Attrs: []dom.Attr{
					{Local: "n", Value: strconv.Itoa(i + 1)},
					{Local: "id", Value: fmt.Sprintf("0x%016x", uint64(id))},
				},
				Parent: el,
			}
			if i < len(d.Formats) && d.Formats[i] != nil {
				ver.Children = append(ver.Children, &dom.Element{
					Local:  "canon",
					Text:   hex.EncodeToString(d.Formats[i].Canonical()),
					Parent: ver,
				})
			}
			el.Children = append(el.Children, ver)
		}
		root.Children = append(root.Children, el)
	}
	var buf bytes.Buffer
	(&dom.Document{Root: root}).WriteXML(&buf)
	return buf.Bytes()
}

// ParseLineages parses a lineage discovery document.
func ParseLineages(data []byte) ([]LineageDoc, error) {
	doc, err := dom.ParseBytes(data)
	if err != nil {
		return nil, fmt.Errorf("discovery: lineage document: %w", err)
	}
	if doc.Root.Local != "lineages" {
		return nil, fmt.Errorf("discovery: lineage document: root element is <%s>, want <lineages>", doc.Root.Local)
	}
	var out []LineageDoc
	for _, el := range doc.Root.ChildrenByName("lineage") {
		name, ok := el.Attr("name")
		if !ok || name == "" {
			return nil, fmt.Errorf("discovery: lineage document: <lineage> missing name")
		}
		// Clone what outlives the parse: the document's strings share its
		// bytes, canonical format bodies included.
		d := LineageDoc{Name: strings.Clone(name)}
		if pol, ok := el.Attr("policy"); ok {
			if d.Policy, err = registry.ParsePolicy(pol); err != nil {
				return nil, fmt.Errorf("discovery: lineage %q: %w", name, err)
			}
		}
		haveBody := false
		for _, v := range el.ChildrenByName("version") {
			ns, _ := v.Attr("n")
			n, err := strconv.Atoi(ns)
			if err != nil || n != len(d.VersionIDs)+1 {
				return nil, fmt.Errorf("discovery: lineage %q: version %q out of order", name, ns)
			}
			ids, _ := v.Attr("id")
			id, err := strconv.ParseUint(strings.TrimPrefix(ids, "0x"), 16, 64)
			if err != nil {
				return nil, fmt.Errorf("discovery: lineage %q v%d: bad id %q", name, n, ids)
			}
			d.VersionIDs = append(d.VersionIDs, meta.FormatID(id))
			var f *meta.Format
			if c := v.FirstChild("canon"); c != nil {
				raw, err := hex.DecodeString(c.Text)
				if err != nil {
					return nil, fmt.Errorf("discovery: lineage %q v%d: bad canon hex: %v", name, n, err)
				}
				if f, err = meta.ParseCanonical(raw); err != nil {
					return nil, fmt.Errorf("discovery: lineage %q v%d: bad canon body: %v", name, n, err)
				}
				if f.ID() != meta.FormatID(id) {
					return nil, fmt.Errorf("discovery: lineage %q v%d: canon body hashes to %#016x, id attribute says %#016x",
						name, n, uint64(f.ID()), id)
				}
				haveBody = true
			}
			d.Formats = append(d.Formats, f)
		}
		if !haveBody {
			d.Formats = nil
		}
		out = append(out, d)
	}
	return out, nil
}

// SnapshotLineages captures a schema registry's lineages as discovery
// documents — the view LineageHandler serves.
func SnapshotLineages(lr *registry.Registry) []LineageDoc {
	var out []LineageDoc
	for _, name := range lr.Lineages() {
		l, err := lr.Lineage(name)
		if err != nil {
			continue
		}
		d := LineageDoc{Name: l.Name(), Policy: l.Policy()}
		for _, v := range l.Versions() {
			d.VersionIDs = append(d.VersionIDs, v.ID)
		}
		out = append(out, d)
	}
	return out
}

// SnapshotLineagesFull captures a registry's lineages with the canonical
// format bodies included — the replicating form brokers gossip and serve to
// bootstrapping peers.
func SnapshotLineagesFull(lr *registry.Registry) []LineageDoc {
	return SnapshotLineagesSince(lr, 0)
}

// SnapshotLineagesSince captures, with format bodies, only the lineages
// mutated after registry revision `after` — the incremental delta a peer
// pulls once it has merged state up to that revision.  A changed lineage is
// always shipped whole (histories are short and append-only; the receiver's
// merge is idempotent), so a delta never depends on the receiver having
// seen intermediate revisions.
func SnapshotLineagesSince(lr *registry.Registry, after uint64) []LineageDoc {
	var out []LineageDoc
	for _, name := range lr.Lineages() {
		l, err := lr.Lineage(name)
		if err != nil || l.Rev() <= after {
			continue
		}
		out = append(out, SnapshotLineageDoc(l))
	}
	return out
}

// SnapshotLineageDoc captures one lineage, format bodies included.
func SnapshotLineageDoc(l *registry.Lineage) LineageDoc {
	d := LineageDoc{Name: l.Name(), Policy: l.Policy()}
	for _, v := range l.Versions() {
		d.VersionIDs = append(d.VersionIDs, v.ID)
		d.Formats = append(d.Formats, v.Format)
	}
	return d
}

// MergeLineages folds gossiped lineage documents into a registry.  The
// document is authoritative (it came from the lineage's home broker): its
// policy is adopted, and versions the receiver has not seen are adopted in
// document order without local policy checks, preserving the home's version
// numbering.  Versions already present are skipped; versions shipped
// without a format body cannot be adopted and end the walk for that
// lineage.  A document that disagrees with already-merged history — a
// different ID at the same position — is reported as an error and the local
// lineage is left as it was, policy included: each document is validated
// against local history first and only then applied.  Documents ahead of a
// refused one are merged; the rest are not.  The documents of one call
// reach the registry as one bulk apply (registry.Apply), so merging a
// catalogue costs time linear in its size.  It returns the number of
// versions adopted.
func MergeLineages(lr *registry.Registry, docs []LineageDoc, source string) (int, error) {
	adopted := 0
	batch := make([]registry.Update, 0, len(docs))
	// A name that repeats within one call must be validated against what the
	// earlier document leaves behind, so the batch so far is applied first.
	queued := make(map[string]struct{}, len(docs))
	flush := func() {
		adopted += lr.Apply(batch)
		batch = batch[:0]
		clear(queued)
	}
	for _, d := range docs {
		if d.Name == "" {
			continue
		}
		if _, again := queued[d.Name]; again {
			flush()
		}
		muts, err := planMerge(lr, d, source)
		if err != nil {
			flush()
			return adopted, err
		}
		queued[d.Name] = struct{}{}
		batch = append(batch, registry.Update{Lineage: d.Name, Mutations: muts})
	}
	flush()
	return adopted, nil
}

// planMerge validates one document against the local lineage and returns
// the mutations that bring the lineage up to it: the document's policy,
// then the versions past the local head that came with a body.
func planMerge(lr *registry.Registry, d LineageDoc, source string) ([]registry.Mutation, error) {
	var local []registry.Version
	if l, err := lr.Lineage(d.Name); err == nil {
		local = l.Versions()
	}
	for i, id := range d.VersionIDs {
		if i == len(local) {
			break
		}
		if local[i].ID != id {
			return nil, fmt.Errorf("discovery: lineage %q diverged: local v%d is %#016x, document says %#016x",
				d.Name, i+1, uint64(local[i].ID), uint64(id))
		}
	}
	muts := make([]registry.Mutation, 1, 1+max(len(d.VersionIDs)-len(local), 0))
	muts[0] = registry.Mutation{Policy: d.Policy}
	for i := len(local); i < len(d.VersionIDs); i++ {
		if i >= len(d.Formats) || d.Formats[i] == nil {
			break // no body to adopt; a later full snapshot will fill in
		}
		muts = append(muts, registry.Mutation{Format: d.Formats[i], Source: source})
	}
	return muts, nil
}

// LineageHandler serves a lineage discovery document at
// WellKnownLineagePath.  view is called per request so the document tracks
// live registrations.
func LineageHandler(view func() []LineageDoc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if r.URL.Path != WellKnownLineagePath && r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		w.Write(MarshalLineages(view()))
	})
}
