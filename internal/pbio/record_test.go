package pbio

import (
	"testing"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/platform"
)

func recordContext(t *testing.T) (*Context, []IOField) {
	t.Helper()
	c := NewContext(WithPlatform(platform.Sparc32))
	return c, kitchenFields(c)
}

func TestRecordRoundTrip(t *testing.T) {
	c, fields := recordContext(t)
	f, err := c.RegisterFields("kitchen", fields)
	if err != nil {
		t.Fatal(err)
	}
	pt := c.FormatByName("point")

	origin := NewRecord(pt)
	must(t, origin.Set("x", 1.5))
	must(t, origin.Set("y", -0.5))
	must(t, origin.Set("t", "origin"))

	corner := NewRecord(pt)
	must(t, corner.Set("x", float32(10)))
	must(t, corner.Set("y", 20))
	must(t, corner.Set("t", "ne"))

	r := NewRecord(f)
	must(t, r.Set("label", "dynamic"))
	must(t, r.Set("active", true))
	must(t, r.Set("grade", byte('B')))
	must(t, r.Set("mode", 3))
	must(t, r.Set("fixed", []uint64{9, 8, 7, 6, 5}))
	must(t, r.Set("vals", []float64{1.25, 2.5}))
	must(t, r.Set("origin", origin))
	must(t, r.Set("corners", []*Record{corner}))
	must(t, r.Set("neg", int64(-42)))
	must(t, r.Set("small", -3))

	msg, err := c.EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}

	// Decode as a record.
	back, err := c.DecodeRecord(msg)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.Get("label"); v.(string) != "dynamic" {
		t.Errorf("label = %v", v)
	}
	if v, _ := back.Get("active"); v.(bool) != true {
		t.Errorf("active = %v", v)
	}
	if v, _ := back.Get("grade"); v.(byte) != 'B' {
		t.Errorf("grade = %v", v)
	}
	if v, _ := back.Get("mode"); v.(uint64) != 3 {
		t.Errorf("mode = %v", v)
	}
	if v, _ := back.Get("count"); v.(int64) != 2 {
		t.Errorf("count = %v (length field must be synthesized)", v)
	}
	if v, _ := back.Get("vals"); len(v.([]float64)) != 2 || v.([]float64)[1] != 2.5 {
		t.Errorf("vals = %v", v)
	}
	if v, _ := back.Get("fixed"); v.([]uint64)[0] != 9 {
		t.Errorf("fixed = %v", v)
	}
	if v, _ := back.Get("neg"); v.(int64) != -42 {
		t.Errorf("neg = %v", v)
	}
	if v, _ := back.Get("small"); v.(int64) != -3 {
		t.Errorf("small = %v", v)
	}
	if v, _ := back.Get("origin"); v.(*Record) == nil {
		t.Fatal("origin missing")
	} else if x, _ := v.(*Record).Get("x"); x.(float64) != 1.5 {
		t.Errorf("origin.x = %v", x)
	}
	corners, _ := back.Get("corners")
	if cs := corners.([]*Record); len(cs) != 1 {
		t.Fatalf("corners = %v", corners)
	} else if tv, _ := cs[0].Get("t"); tv.(string) != "ne" {
		t.Errorf("corner.t = %v", tv)
	}

	// Decode the record-encoded message into the compiled struct.
	var out kitchenSink
	if _, err := c.Decode(msg, &out); err != nil {
		t.Fatal(err)
	}
	if out.Label != "dynamic" || out.Count != 2 || out.Vals[0] != 1.25 ||
		out.Origin.T != "origin" || len(out.Corners) != 1 || out.Corners[0].X != 10 {
		t.Errorf("struct decode of record message = %+v", out)
	}
}

// TestRecordStructEncodeInterop: struct-encoded messages decode as records.
func TestRecordStructEncodeInterop(t *testing.T) {
	c, fields := recordContext(t)
	f, err := c.RegisterFields("kitchen", fields)
	if err != nil {
		t.Fatal(err)
	}
	in := kitchenValue()
	b, _ := c.Bind(f, &in)
	msg, err := b.Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.DecodeRecord(msg)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Get("label"); v.(string) != in.Label {
		t.Errorf("label = %v", v)
	}
	if v, _ := r.Get("ncorn"); v.(int64) != 3 {
		t.Errorf("ncorn = %v", v)
	}
	names := r.FieldNames()
	if len(names) != len(f.Fields) || names[0] != "count" {
		t.Errorf("FieldNames = %v", names)
	}
	if r.Format() != f {
		t.Error("record format mismatch")
	}
}

func TestRecordSetErrors(t *testing.T) {
	c, _ := recordContext(t)
	f, _ := c.RegisterFields("M", []IOField{
		{Name: "n", Type: "integer"},
		{Name: "s", Type: "string"},
		{Name: "v", Type: "float[n]"},
	})
	r := NewRecord(f)
	if err := r.Set("nope", 1); err == nil {
		t.Error("setting unknown field should fail")
	}
	if err := r.Set("n", "not a number"); err == nil {
		t.Error("string into integer should fail")
	}
	if err := r.Set("s", 42); err == nil {
		t.Error("int into string should fail")
	}
	if err := r.Set("v", []string{"x"}); err == nil {
		t.Error("strings into float array should fail")
	}
	if err := r.Set("v", 1.5); err == nil {
		t.Error("scalar into array field should fail")
	}
	if _, ok := r.Get("n"); ok {
		t.Error("unset field should report !ok")
	}

	// Nested record of the wrong format.
	g, _ := c.RegisterFields("P", []IOField{{Name: "x", Type: "double"}})
	h, _ := c.RegisterFields("HasP", []IOField{{Name: "p", Type: "P"}})
	rr := NewRecord(h)
	wrong := NewRecord(f)
	if err := rr.Set("p", wrong); err == nil {
		t.Error("nested record with wrong format should fail")
	}
	right := NewRecord(g)
	if err := rr.Set("p", right); err != nil {
		t.Errorf("nested record with right format failed: %v", err)
	}
}

func TestRecordConversions(t *testing.T) {
	c, _ := recordContext(t)
	f, _ := c.RegisterFields("M", []IOField{
		{Name: "i", Type: "integer"},
		{Name: "u", Type: "unsigned"},
		{Name: "fl", Type: "float"},
		{Name: "b", Type: "boolean"},
		{Name: "ch", Type: "char"},
	})
	r := NewRecord(f)
	must(t, r.Set("i", uint16(7)))
	must(t, r.Set("u", int8(3)))
	must(t, r.Set("fl", 5)) // int into float
	must(t, r.Set("b", 1))  // int into bool
	must(t, r.Set("ch", 'x'))
	msg, err := c.EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.DecodeRecord(msg)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.Get("i"); v.(int64) != 7 {
		t.Errorf("i = %v", v)
	}
	if v, _ := back.Get("fl"); v.(float64) != 5 {
		t.Errorf("fl = %v", v)
	}
	if v, _ := back.Get("b"); v.(bool) != true {
		t.Errorf("b = %v", v)
	}
	if v, _ := back.Get("ch"); v.(byte) != 'x' {
		t.Errorf("ch = %v", v)
	}
}

func TestRecordArrayConversions(t *testing.T) {
	c, _ := recordContext(t)
	f, _ := c.RegisterFields("M", []IOField{
		{Name: "n", Type: "integer"},
		{Name: "a", Type: "integer[n]"},
		{Name: "m", Type: "integer"},
		{Name: "b", Type: "unsigned[m]"},
		{Name: "k", Type: "integer"},
		{Name: "c", Type: "float[k]"},
		{Name: "j", Type: "integer"},
		{Name: "d", Type: "boolean[j]"},
		{Name: "q", Type: "integer"},
		{Name: "e", Type: "char[q]"},
	})
	r := NewRecord(f)
	must(t, r.Set("a", []int{1, 2}))
	must(t, r.Set("b", []uint32{3}))
	must(t, r.Set("c", []float32{1.5}))
	must(t, r.Set("d", []bool{true, false, true}))
	must(t, r.Set("e", []byte("hi")))
	msg, err := c.EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.DecodeRecord(msg)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.Get("a"); v.([]int64)[1] != 2 {
		t.Errorf("a = %v", v)
	}
	if v, _ := back.Get("b"); v.([]uint64)[0] != 3 {
		t.Errorf("b = %v", v)
	}
	if v, _ := back.Get("c"); v.([]float64)[0] != 1.5 {
		t.Errorf("c = %v", v)
	}
	if v, _ := back.Get("d"); !v.([]bool)[2] {
		t.Errorf("d = %v", v)
	}
	if v, _ := back.Get("e"); string(v.([]byte)) != "hi" {
		t.Errorf("e = %v", v)
	}
}

// TestRecordUnsetFields: encoding a record with unset fields produces
// zeros, and empty arrays round-trip as empty.
func TestRecordUnsetFields(t *testing.T) {
	c, _ := recordContext(t)
	f, _ := c.RegisterFields("M", []IOField{
		{Name: "n", Type: "integer"},
		{Name: "s", Type: "string"},
		{Name: "v", Type: "float[n]"},
	})
	r := NewRecord(f)
	msg, err := c.EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.DecodeRecord(msg)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.Get("n"); v.(int64) != 0 {
		t.Errorf("n = %v", v)
	}
	if v, _ := back.Get("s"); v.(string) != "" {
		t.Errorf("s = %v", v)
	}
	if v, _ := back.Get("v"); len(v.([]float64)) != 0 {
		t.Errorf("v = %v", v)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestProjectionCollapsesToOneCopy pins the plan shape the broker's common
// case depends on: projecting a head that only appended fields back onto an
// earlier version of the same platform is one memmove of the older fixed
// block, and the reverse is one memmove into a larger zeroed block.
func TestProjectionCollapsesToOneCopy(t *testing.T) {
	defs := []meta.FieldDef{
		{Name: "seq", Kind: meta.Unsigned, Class: platform.LongLong},
		{Name: "value", Kind: meta.Float, Class: platform.Double},
		{Name: "pad", Kind: meta.Integer, Class: platform.Int, StaticDim: 8},
		{Name: "tag", Kind: meta.Char, Class: platform.Char, StaticDim: 8},
		{Name: "g1", Kind: meta.Integer, Class: platform.LongLong},
		{Name: "g2", Kind: meta.Integer, Class: platform.LongLong},
	}
	v1, err := meta.Build("m", platform.X8664, defs[:4])
	if err != nil {
		t.Fatal(err)
	}
	head, err := meta.Build("m", platform.X8664, defs)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*meta.Format{{head, v1}, {v1, head}} {
		p, err := CompileProjection(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(p.steps) != 1 || p.steps[0].op != projCopy || p.steps[0].n != v1.Size {
			t.Errorf("%d -> %d fields: plan %+v, want one %d-byte copy",
				len(pair[0].Fields), len(pair[1].Fields), p.steps, v1.Size)
		}
	}
	// A byte-order change breaks the run into per-field conversions.
	be, err := meta.Build("m", platform.Sparc64, defs[:4])
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileProjection(head, be)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.steps) != 4 || p.steps[3].op != projCopy { // only the char run still copies
		t.Errorf("cross-endian plan %+v, want three conversions and the char copy", p.steps)
	}
}

// TestRecordFieldTable covers how a record addresses its values: by field
// position, reached from a case-insensitive name.
func TestRecordFieldTable(t *testing.T) {
	c, _ := recordContext(t)
	f, _ := c.RegisterFields("M", []IOField{
		{Name: "Count", Type: "integer"},
		{Name: "label", Type: "string"},
	})
	g, _ := c.RegisterFields("P", []IOField{{Name: "x", Type: "double"}})
	h, _ := c.RegisterFields("HasP", []IOField{{Name: "p", Type: "P"}})
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"set then get ignores case", func(t *testing.T) {
			r := NewRecord(f)
			must(t, r.Set("COUNT", 7))
			for _, n := range []string{"count", "Count", "cOuNt"} {
				if v, ok := r.Get(n); !ok || v.(int64) != 7 {
					t.Errorf("Get(%q) = %v, %v; want 7, true", n, v, ok)
				}
			}
			must(t, r.Set("count", 8)) // same field, replaced
			if v, _ := r.Get("Count"); v.(int64) != 8 {
				t.Errorf("after second Set: %v, want 8", v)
			}
		}},
		{"unset and unknown fields", func(t *testing.T) {
			r := NewRecord(f)
			must(t, r.Set("count", 1))
			for _, n := range []string{"label", "nope"} {
				if v, ok := r.Get(n); ok || v != nil {
					t.Errorf("Get(%q) = %v, %v; want nil, false", n, v, ok)
				}
			}
		}},
		{"nested set checks the sub-format", func(t *testing.T) {
			r := NewRecord(h)
			if err := r.Set("p", NewRecord(f)); err == nil {
				t.Error("nested record of the wrong format was accepted")
			}
			if _, ok := r.Get("p"); ok {
				t.Error("a rejected Set left a value behind")
			}
			must(t, r.Set("P", NewRecord(g)))
			if v, ok := r.Get("p"); !ok || v.(*Record).Format() != g {
				t.Errorf("Get(p) = %v, %v", v, ok)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestRecordDecodeAllocs gates what decoding a small record costs in heap
// allocations: the record, its value table, and one per boxed value.
func TestRecordDecodeAllocs(t *testing.T) {
	c, _ := recordContext(t)
	f, _ := c.RegisterFields("Metric", []IOField{
		{Name: "seq", Type: "unsigned integer"},
		{Name: "sum", Type: "integer"},
		{Name: "value", Type: "double"},
		{Name: "tag", Type: "string"},
	})
	r := NewRecord(f)
	must(t, r.Set("seq", 100000))
	must(t, r.Set("sum", -100000))
	must(t, r.Set("value", 2.5))
	must(t, r.Set("tag", "metric"))
	body, err := c.EncodeRecordBody(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	const want = 7
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.DecodeRecordBody(f, body); err != nil {
			t.Error(err)
		}
	}); n > want {
		t.Errorf("DecodeRecordBody: %v allocs/op, want at most %d", n, want)
	}
}
