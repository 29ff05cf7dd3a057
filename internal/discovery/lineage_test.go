package discovery

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/registry"
)

func TestLineageDocRoundTrip(t *testing.T) {
	in := []LineageDoc{
		{Name: "sensor", Policy: registry.PolicyBackward,
			VersionIDs: []meta.FormatID{0x0123456789abcdef, 0xfedcba9876543210}},
		{Name: "audit", Policy: registry.PolicyFullTransitive,
			VersionIDs: []meta.FormatID{42}},
	}
	out, err := ParseLineages(MarshalLineages(in))
	if err != nil {
		t.Fatal(err)
	}
	// Marshalling sorts by name.
	want := []LineageDoc{in[1], in[0]}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("round trip = %+v, want %+v", out, want)
	}
}

func TestParseLineagesRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"<lineage name='x'/>",
		"<lineages><lineage/></lineages>", // no name
		"<lineages><lineage name='x' policy='sideways'/></lineages>",                         // bad policy
		"<lineages><lineage name='x'><version n='2' id='0x1'/></lineage></lineages>",         // gap
		"<lineages><lineage name='x'><version n='1' id='zebra'/></lineage></lineages>",       // bad id
		"<lineages><lineage name='x' policy='none'><version id='0x1'/></lineage></lineages>", // no n
	} {
		if _, err := ParseLineages([]byte(bad)); err == nil {
			t.Errorf("ParseLineages(%q) succeeded, want error", bad)
		}
	}
}

// TestLineageHandlerFetch serves a live registry snapshot over HTTP, at the
// well-known path and at the origin root, and fetches it back through the
// Repository cache stack.
func TestLineageHandlerFetch(t *testing.T) {
	lr := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	v1, err := meta.Build("sensor", platform.X8664, []meta.FieldDef{
		{Name: "id", Kind: meta.Integer, Class: platform.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := meta.Build("sensor", platform.X8664, []meta.FieldDef{
		{Name: "id", Kind: meta.Integer, Class: platform.Int},
		{Name: "unit", Kind: meta.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lr.Register("sensor", v1, "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := lr.Register("sensor", v2, "test"); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(LineageHandler(func() []LineageDoc { return SnapshotLineages(lr) }))
	defer srv.Close()

	repo := NewRepository()
	data, err := repo.Fetch(srv.URL + WellKnownLineagePath)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := ParseLineages(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("docs = %+v", docs)
	}
	d := docs[0]
	if d.Name != "sensor" || d.Policy != registry.PolicyBackward ||
		len(d.VersionIDs) != 2 || d.VersionIDs[0] != v1.ID() || d.VersionIDs[1] != v2.ID() {
		t.Errorf("fetched %+v", d)
	}
	if !repo.Cached(srv.URL + WellKnownLineagePath) {
		t.Error("lineage document not cached after fetch")
	}
	if root, err := repo.Fetch(srv.URL + "/"); err != nil || string(root) != string(data) {
		t.Errorf("origin root served %q, %v; want the well-known document", root, err)
	}
}

// TestLineageDocFormatBodies: the replicating form round-trips the
// canonical format bytes, and a body that does not hash to its id attribute
// is rejected.
func TestLineageDocFormatBodies(t *testing.T) {
	v1, err := meta.Build("sensor", platform.X8664, []meta.FieldDef{
		{Name: "id", Kind: meta.Integer, Class: platform.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := meta.Build("sensor", platform.X8664, []meta.FieldDef{
		{Name: "id", Kind: meta.Integer, Class: platform.Int},
		{Name: "unit", Kind: meta.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := []LineageDoc{{
		Name:       "sensor",
		Policy:     registry.PolicyBackward,
		VersionIDs: []meta.FormatID{v1.ID(), v2.ID()},
		Formats:    []*meta.Format{v1, v2},
	}}
	out, err := ParseLineages(MarshalLineages(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0].Formats) != 2 {
		t.Fatalf("parsed %+v", out)
	}
	for i, f := range out[0].Formats {
		if f == nil || f.ID() != in[0].VersionIDs[i] {
			t.Errorf("format %d did not survive the round trip", i)
		}
	}
	// A mixed document (one body missing) keeps alignment.
	in[0].Formats[0] = nil
	out, err = ParseLineages(MarshalLineages(in))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Formats[0] != nil || out[0].Formats[1] == nil {
		t.Errorf("mixed bodies misaligned: %+v", out[0].Formats)
	}
	// Tampered id attribute: the body no longer hashes to it.
	doc := MarshalLineages([]LineageDoc{{
		Name: "sensor", VersionIDs: []meta.FormatID{12345}, Formats: []*meta.Format{v1},
	}})
	if _, err := ParseLineages(doc); err == nil {
		t.Error("accepted canon body whose hash disagrees with the id attribute")
	}
}

// TestMergeLineages: gossiped documents replicate the home's history —
// policy and version numbering — into a receiving registry, idempotently,
// and divergence is an error rather than a silent overwrite.
func TestMergeLineages(t *testing.T) {
	home := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	v1, _ := meta.Build("sensor", platform.X8664, []meta.FieldDef{
		{Name: "id", Kind: meta.Integer, Class: platform.Int},
	})
	v2, _ := meta.Build("sensor", platform.X8664, []meta.FieldDef{
		{Name: "id", Kind: meta.Integer, Class: platform.Int},
		{Name: "unit", Kind: meta.String},
	})
	for _, f := range []*meta.Format{v1, v2} {
		if _, err := home.Register("sensor", f, "test"); err != nil {
			t.Fatal(err)
		}
	}

	remote := registry.New()
	n, err := MergeLineages(remote, SnapshotLineagesFull(home), "gossip")
	if err != nil || n != 2 {
		t.Fatalf("merge = %d, %v", n, err)
	}
	l, err := remote.Lineage("sensor")
	if err != nil {
		t.Fatal(err)
	}
	if l.Policy() != registry.PolicyBackward || l.Len() != 2 {
		t.Fatalf("merged lineage: policy=%v len=%d", l.Policy(), l.Len())
	}
	hv, _ := l.Head()
	if hv.Version != 2 || hv.ID != v2.ID() {
		t.Errorf("merged head = %+v", hv)
	}
	// Merging the same snapshot again adopts nothing.
	if n, err = MergeLineages(remote, SnapshotLineagesFull(home), "gossip"); err != nil || n != 0 {
		t.Errorf("re-merge = %d, %v", n, err)
	}
	// A diverged document (different ID at an occupied position) errors.
	bad := SnapshotLineagesFull(home)
	bad[0].VersionIDs[0] = 999
	if _, err := MergeLineages(remote, bad, "gossip"); err == nil {
		t.Error("merged a diverged lineage without error")
	}
	// Delta snapshots: nothing changed since the home's current revision.
	if docs := SnapshotLineagesSince(home, home.Rev()); len(docs) != 0 {
		t.Errorf("empty delta has %d docs", len(docs))
	}
	if docs := SnapshotLineagesSince(home, 0); len(docs) != 1 {
		t.Errorf("full delta has %d docs", len(docs))
	}
}

// TestMergeLineagesRefusalLeavesLineageAlone: a diverged document is refused
// before anything of it is applied — its policy included — while the
// documents ahead of it in the same call are merged.
func TestMergeLineagesRefusalLeavesLineageAlone(t *testing.T) {
	build := func(name string, fields int) *meta.Format {
		defs := []meta.FieldDef{{Name: "id", Kind: meta.Integer, Class: platform.Int}}
		for i := 1; i < fields; i++ {
			defs = append(defs, meta.FieldDef{Name: "f" + string(rune('a'+i)), Kind: meta.Integer, Class: platform.Int})
		}
		f, err := meta.Build(name, platform.X8664, defs)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	s1, s2, other := build("sensor", 1), build("sensor", 2), build("sensor", 3)
	a1 := build("audit", 1)

	local := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := local.Register("sensor", s1, "test"); err != nil {
		t.Fatal(err)
	}
	rev := local.Rev()
	docs := []LineageDoc{
		{Name: "audit", Policy: registry.PolicyFull, VersionIDs: []meta.FormatID{a1.ID()}, Formats: []*meta.Format{a1}},
		{Name: "sensor", Policy: registry.PolicyNone, // v1 is not what the local lineage holds
			VersionIDs: []meta.FormatID{other.ID(), s2.ID()}, Formats: []*meta.Format{other, s2}},
		{Name: "zone", Policy: registry.PolicyFull},
	}
	n, err := MergeLineages(local, docs, "gossip")
	if err == nil || n != 1 {
		t.Fatalf("merge = %d, %v; want the audit version adopted and a divergence error", n, err)
	}
	l, _ := local.Lineage("sensor")
	if l.Policy() != registry.PolicyBackward || l.Len() != 1 || l.Rev() != 1 {
		t.Errorf("refused document changed the lineage: policy=%v len=%d rev=%d", l.Policy(), l.Len(), l.Rev())
	}
	if a, err := local.Lineage("audit"); err != nil || a.Policy() != registry.PolicyFull || a.Len() != 1 {
		t.Errorf("document ahead of the refused one was not merged: %v", err)
	}
	if _, err := local.Lineage("zone"); err == nil {
		t.Error("document behind the refused one was merged")
	}
	if got := local.Rev(); got != rev+2 { // audit's policy and its one version
		t.Errorf("registry rev moved %d -> %d, want +2", rev, got)
	}

	// A name repeated in one call is validated against what the earlier
	// document left behind: the second document here diverges at v2.
	fresh := registry.New()
	n, err = MergeLineages(fresh, []LineageDoc{
		{Name: "sensor", VersionIDs: []meta.FormatID{s1.ID(), s2.ID()}, Formats: []*meta.Format{s1, s2}},
		{Name: "sensor", VersionIDs: []meta.FormatID{s1.ID(), other.ID()}, Formats: []*meta.Format{s1, other}},
	}, "gossip")
	if err == nil || n != 2 {
		t.Errorf("repeated name: merge = %d, %v; want 2 adopted and a divergence error", n, err)
	}
	if l, _ := fresh.Lineage("sensor"); l.Len() != 2 {
		t.Errorf("repeated name: %d versions, want 2", l.Len())
	}
}

// FuzzMergeLineages: the gossiped lineage-delta wire format is parsed and
// merged from bytes a peer sent; arbitrary input must never panic or
// corrupt the receiving registry, and whatever merges must re-snapshot to a
// parseable document.
func FuzzMergeLineages(f *testing.F) {
	f.Add([]byte(`<lineages/>`))
	f.Add([]byte(`<lineages><lineage name="s" policy="backward"><version n="1" id="0x0123456789abcdef"/></lineage></lineages>`))
	v1, _ := meta.Build("sensor", platform.X8664, []meta.FieldDef{
		{Name: "id", Kind: meta.Integer, Class: platform.Int},
	})
	f.Add(MarshalLineages([]LineageDoc{{
		Name: "sensor", Policy: registry.PolicyBackward,
		VersionIDs: []meta.FormatID{v1.ID()}, Formats: []*meta.Format{v1},
	}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := ParseLineages(data)
		if err != nil {
			return
		}
		lr := registry.New()
		if _, err := MergeLineages(lr, docs, "fuzz"); err != nil {
			return
		}
		snap := SnapshotLineagesFull(lr)
		if _, err := ParseLineages(MarshalLineages(snap)); err != nil {
			t.Fatalf("merged state does not re-snapshot: %v", err)
		}
		// Merging the same document twice is idempotent.
		if n, err := MergeLineages(lr, docs, "fuzz"); err != nil || n != 0 {
			t.Fatalf("re-merge adopted %d versions (err %v)", n, err)
		}
	})
}

// FuzzParseLineages: the lineage document parser faces fetched bytes from
// arbitrary origins; it must reject, never panic on, malformed input, and
// anything it accepts must survive a marshal/parse round trip.
func FuzzParseLineages(f *testing.F) {
	f.Add([]byte(`<lineages/>`))
	f.Add([]byte(`<lineages><lineage name="s" policy="backward"><version n="1" id="0x0123456789abcdef"/></lineage></lineages>`))
	f.Add([]byte(`<lineages><lineage name="s"><version n="2" id="0x1"/></lineage></lineages>`))
	f.Add([]byte(`<lineages><lineage policy="bogus"/></lineages>`))
	f.Add([]byte(`<formats/>`))
	f.Add(MarshalLineages([]LineageDoc{
		{Name: "a", Policy: registry.PolicyFullTransitive, VersionIDs: []meta.FormatID{1, 2, 3}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := ParseLineages(data)
		if err != nil {
			return
		}
		back, err := ParseLineages(MarshalLineages(docs))
		if err != nil {
			t.Fatalf("accepted document failed re-parse: %v", err)
		}
		if len(back) != len(docs) {
			t.Fatalf("round trip changed lineage count: %d -> %d", len(docs), len(back))
		}
	})
}
