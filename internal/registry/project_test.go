package registry

import (
	"strings"
	"testing"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
)

// TestProjectDown: a head record projected onto an older pinned view drops
// the added fields and keeps the shared ones, through a real encode/decode
// round-trip (the reference path the broker's compiled plans are tested
// against).
func TestProjectDown(t *testing.T) {
	v1 := sensorV1(t) // id, value
	v3 := sensorV3(t) // id, value, unit, seq
	ctx := pbio.NewContext(pbio.WithPlatform(platform.X8664))
	for _, f := range []*meta.Format{v1, v3} {
		if _, err := ctx.RegisterFormat(f); err != nil {
			t.Fatal(err)
		}
	}

	rec := pbio.NewRecord(v3)
	for name, v := range map[string]any{"id": 7, "value": 2.5, "unit": "K", "seq": uint64(99)} {
		if err := rec.Set(name, v); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := ctx.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ctx.DecodeRecord(msg)
	if err != nil {
		t.Fatal(err)
	}

	pinned, err := Project(decoded, v1)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Format().ID() != v1.ID() {
		t.Fatalf("projected format = %s, want v1", pinned.Format().Name)
	}
	if v, _ := pinned.Get("id"); v != int64(7) {
		t.Errorf("id = %v, want 7", v)
	}
	if v, _ := pinned.Get("value"); v != 2.5 {
		t.Errorf("value = %v, want 2.5", v)
	}
	if _, ok := pinned.Get("unit"); ok {
		t.Error("unit survived projection to v1")
	}
	// The projected record must encode under the old format.
	if _, err := ctx.EncodeRecord(pinned); err != nil {
		t.Fatalf("encode projected: %v", err)
	}
}

// TestProjectUp: an old event projected onto a newer view zero-fills the
// added fields (they stay unset; the codec zero-fills on encode).
func TestProjectUp(t *testing.T) {
	v1, v2 := sensorV1(t), sensorV2(t)
	rec := pbio.NewRecord(v1)
	if err := rec.Set("id", 3); err != nil {
		t.Fatal(err)
	}
	up, err := Project(rec, v2)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := up.Get("id"); v != int64(3) {
		t.Errorf("id = %v", v)
	}
	if _, ok := up.Get("unit"); ok {
		t.Error("unit set after up-projection; want unset (zero-filled on encode)")
	}
}

// TestProjectIdentity: projecting onto the same format is a no-op that
// returns the record itself.
func TestProjectIdentity(t *testing.T) {
	v1 := sensorV1(t)
	rec := pbio.NewRecord(v1)
	got, err := Project(rec, v1)
	if err != nil || got != rec {
		t.Fatalf("identity projection = %v, %v; want same record", got, err)
	}
}

// TestProjectNestedAndArrays: nested records are rebuilt against the
// destination sub-format, and widened arrays convert element types.
func TestProjectNestedAndArrays(t *testing.T) {
	hdrV1 := build(t, "hdr", []meta.FieldDef{
		{Name: "seq", Kind: meta.Unsigned, Class: platform.Int},
	})
	hdrV2 := build(t, "hdr", []meta.FieldDef{
		{Name: "seq", Kind: meta.Unsigned, Class: platform.Int},
		{Name: "host", Kind: meta.String},
	})
	oldF := build(t, "batch", []meta.FieldDef{
		{Name: "hdr", Kind: meta.Struct, Sub: hdrV1},
		{Name: "n", Kind: meta.Integer, Class: platform.Int},
		{Name: "samples", Kind: meta.Integer, Class: platform.Int, LengthField: "n"},
	})
	newF := build(t, "batch", []meta.FieldDef{
		{Name: "hdr", Kind: meta.Struct, Sub: hdrV2},
		{Name: "n", Kind: meta.Integer, Class: platform.Int},
		// Samples widened to unsigned 64-bit: projection back to the old
		// view must convert []uint64 -> []int64.
		{Name: "samples", Kind: meta.Unsigned, Class: platform.LongLong, LengthField: "n"},
	})

	hdr := pbio.NewRecord(hdrV2)
	if err := hdr.Set("seq", 41); err != nil {
		t.Fatal(err)
	}
	if err := hdr.Set("host", "n1"); err != nil {
		t.Fatal(err)
	}
	rec := pbio.NewRecord(newF)
	if err := rec.Set("hdr", hdr); err != nil {
		t.Fatal(err)
	}
	if err := rec.Set("n", 3); err != nil {
		t.Fatal(err)
	}
	if err := rec.Set("samples", []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	old, err := Project(rec, oldF)
	if err != nil {
		t.Fatal(err)
	}
	hv, ok := old.Get("hdr")
	if !ok {
		t.Fatal("hdr missing after projection")
	}
	ph := hv.(*pbio.Record)
	if ph.Format().ID() != hdrV1.ID() {
		t.Fatal("nested record not rebuilt against destination sub-format")
	}
	if v, _ := ph.Get("seq"); v != uint64(41) {
		t.Errorf("hdr.seq = %v", v)
	}
	if _, ok := ph.Get("host"); ok {
		t.Error("hdr.host survived projection")
	}
	sv, _ := old.Get("samples")
	s, ok := sv.([]int64)
	if !ok || len(s) != 3 || s[0] != 1 || s[2] != 3 {
		t.Fatalf("samples = %#v, want []int64{1,2,3}", sv)
	}
	// And the projected record encodes/decodes cleanly under the old format.
	ctx := pbio.NewContext(pbio.WithPlatform(platform.X8664))
	if _, err := ctx.RegisterFormat(oldF); err != nil {
		t.Fatal(err)
	}
	msg, err := ctx.EncodeRecord(old)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ctx.DecodeRecord(msg)
	if err != nil {
		t.Fatal(err)
	}
	bs, _ := back.Get("samples")
	if b, ok := bs.([]int64); !ok || len(b) != 3 || b[1] != 2 {
		t.Fatalf("round-tripped samples = %#v", bs)
	}
}

// TestProjectKindCrossingFails: under PolicyNone a lineage can cross kind
// families; projection then fails loudly, naming the field.
func TestProjectKindCrossingFails(t *testing.T) {
	a := build(t, "m", []meta.FieldDef{{Name: "v", Kind: meta.Float, Class: platform.Double}})
	b := build(t, "m", []meta.FieldDef{{Name: "v", Kind: meta.String}})
	rec := pbio.NewRecord(a)
	if err := rec.Set("v", 1.5); err != nil {
		t.Fatal(err)
	}
	if _, err := Project(rec, b); err == nil {
		t.Fatal("float->string projection succeeded")
	}
}

// TestProjectAddedArrayOnExistingLength is the ISSUE 16 regression.  Adding a
// dynamic array sized by a field the format already carried is admitted by
// every policy, so projection must produce a frame the new version decodes:
// the absent array is zero-filled to the count its length field declares, in
// both directions and for arrays sharing the field.
func TestProjectAddedArrayOnExistingLength(t *testing.T) {
	build := func(defs ...meta.FieldDef) *meta.Format {
		t.Helper()
		f, err := meta.Build("m", platform.X8664, defs)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	n := meta.FieldDef{Name: "n", Kind: meta.Integer, Class: platform.Int}
	x := meta.FieldDef{Name: "x", Kind: meta.Float, Class: platform.Double}
	a := meta.FieldDef{Name: "a", Kind: meta.Float, Class: platform.Double, LengthField: "n"}
	b := meta.FieldDef{Name: "b", Kind: meta.Integer, Class: platform.Short, LengthField: "n"}
	sub := build(meta.FieldDef{Name: "q", Kind: meta.Integer, Class: platform.Int}, meta.FieldDef{Name: "s", Kind: meta.String})
	r := meta.FieldDef{Name: "r", Kind: meta.Struct, Sub: sub, LengthField: "n"}
	k := meta.FieldDef{Name: "k", Kind: meta.Integer, Class: platform.Int}
	late := meta.FieldDef{Name: "late", Kind: meta.Integer, Class: platform.Int, LengthField: "k"}

	v1 := build(n, x)
	v2 := build(n, x, a, r, k, late)
	ctx := pbio.NewContext()
	roundTrip := func(rec *pbio.Record, dst *meta.Format) *pbio.Record {
		t.Helper()
		body, err := ctx.EncodeRecordBody(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := ctx.DecodeRecordBody(rec.Format(), body)
		if err != nil {
			t.Fatal(err)
		}
		proj, err := Project(dec, dst)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ctx.EncodeRecordBody(nil, proj)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ctx.DecodeRecordBody(dst, out)
		if err != nil {
			t.Fatalf("projected frame does not decode: %v", err)
		}
		return got
	}

	old := pbio.NewRecord(v1)
	old.Set("n", 3)
	old.Set("x", 1.5)
	up := roundTrip(old, v2)
	if v, _ := up.Get("a"); len(v.([]float64)) != 3 {
		t.Errorf("a = %v, want three zeros", v)
	}
	if v, _ := up.Get("r"); len(v.([]*pbio.Record)) != 3 {
		t.Errorf("r = %v, want three zero records", v)
	}
	if v, _ := up.Get("late"); len(v.([]int64)) != 0 {
		t.Errorf("late = %v, want empty: its length field is absent from the source too", v)
	}
	if v, _ := up.Get("n"); v != int64(3) {
		t.Errorf("n = %v, want 3", v)
	}

	// Down onto a view that still has a second array on a length field the
	// head kept: the head dropped b, the view's b must still agree with n.
	headF, viewF := build(n, a), build(n, a, b)
	head := pbio.NewRecord(headF)
	head.Set("a", []float64{1, 2})
	down := roundTrip(head, viewF)
	if v, _ := down.Get("b"); len(v.([]int64)) != 2 {
		t.Errorf("b = %v, want two zeros beside a's two elements", v)
	}
	if v, _ := down.Get("a"); len(v.([]float64)) != 2 {
		t.Errorf("a = %v", v)
	}

	// Counts nothing could carry are refused, naming the array.
	for _, bad := range []int64{-1, 1 << 30} {
		old.Set("n", bad)
		if _, err := Project(old, v2); err == nil || !strings.Contains(err.Error(), `field "a"`) {
			t.Errorf("n = %d: Project error %v, want one naming field a", bad, err)
		}
	}
}
