package meta

import (
	"strings"
	"testing"

	"github.com/open-metadata/xmit/internal/platform"
)

// simpleDataDefs mirrors the paper's SimpleData struct:
//
//	typedef struct { int timestep; int size; float *data; } SimpleData;
func simpleDataDefs() []FieldDef {
	return []FieldDef{
		{Name: "timestep", Kind: Integer, Class: platform.Int},
		{Name: "size", Kind: Integer, Class: platform.Int},
		{Name: "data", Kind: Float, Class: platform.Float, LengthField: "size"},
	}
}

func TestBuildSimpleDataSparc32(t *testing.T) {
	f, err := Build("SimpleData", platform.Sparc32, simpleDataDefs())
	if err != nil {
		t.Fatal(err)
	}
	// On a 32-bit platform the struct is 12 bytes, as in the paper's
	// Figure 6 (structure size 12).
	if f.Size != 12 {
		t.Errorf("sparc32 SimpleData size = %d, want 12", f.Size)
	}
	if f.Fields[0].Offset != 0 || f.Fields[1].Offset != 4 || f.Fields[2].Offset != 8 {
		t.Errorf("offsets = %d,%d,%d, want 0,4,8",
			f.Fields[0].Offset, f.Fields[1].Offset, f.Fields[2].Offset)
	}
	if !f.BigEndian || f.PointerSize != 4 {
		t.Error("sparc32 format should be big-endian with 4-byte pointers")
	}
	if !f.HasVariablePart() {
		t.Error("SimpleData has a dynamic array; HasVariablePart should be true")
	}
}

func TestBuildSimpleDataX8664(t *testing.T) {
	f, err := Build("SimpleData", platform.X8664, simpleDataDefs())
	if err != nil {
		t.Fatal(err)
	}
	// 4 + 4 + 8-byte pointer = 16 on LP64.
	if f.Size != 16 || f.Fields[2].Offset != 8 {
		t.Errorf("x86_64 SimpleData size=%d data@%d, want 16, 8", f.Size, f.Fields[2].Offset)
	}
	if f.BigEndian {
		t.Error("x86_64 format should be little-endian")
	}
}

func TestBuildJoinRequest(t *testing.T) {
	// typedef struct { char *name; unsigned server; unsigned long ip_addr;
	//                  pid_t pid; unsigned long ds_addr; } JoinRequest;
	defs := []FieldDef{
		{Name: "name", Kind: String},
		{Name: "server", Kind: Unsigned, Class: platform.Int},
		{Name: "ip_addr", Kind: Unsigned, Class: platform.Long},
		{Name: "pid", Kind: Integer, Class: platform.Int},
		{Name: "ds_addr", Kind: Unsigned, Class: platform.Long},
	}
	f, err := Build("JoinRequest", platform.Sparc32, defs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size != 20 {
		t.Errorf("sparc32 JoinRequest size = %d, want 20 (paper Figure 6)", f.Size)
	}
}

func TestBuildNestedStruct(t *testing.T) {
	inner, err := Build("Point", platform.Sparc32, []FieldDef{
		{Name: "x", Kind: Float, Class: platform.Double},
		{Name: "y", Kind: Float, Class: platform.Double},
	})
	if err != nil {
		t.Fatal(err)
	}
	outer, err := Build("Segment", platform.Sparc32, []FieldDef{
		{Name: "id", Kind: Integer, Class: platform.Int},
		{Name: "a", Kind: Struct, Sub: inner},
		{Name: "b", Kind: Struct, Sub: inner},
	})
	if err != nil {
		t.Fatal(err)
	}
	// id at 0, a at 8 (double alignment), b at 24; size 40.
	if outer.Fields[1].Offset != 8 || outer.Fields[2].Offset != 24 || outer.Size != 40 {
		t.Errorf("layout = a@%d b@%d size %d, want 8, 24, 40",
			outer.Fields[1].Offset, outer.Fields[2].Offset, outer.Size)
	}
	if outer.FieldCount() != 5 {
		t.Errorf("FieldCount = %d, want 5 leaves", outer.FieldCount())
	}
}

func TestBuildStaticArray(t *testing.T) {
	f, err := Build("Block", platform.X8664, []FieldDef{
		{Name: "tag", Kind: Char, Class: platform.Char},
		{Name: "vals", Kind: Integer, Class: platform.Int, StaticDim: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Fields[1].Offset != 4 || f.Size != 28 {
		t.Errorf("vals@%d size=%d, want 4, 28", f.Fields[1].Offset, f.Size)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name string
		defs []FieldDef
	}{
		{"static+dynamic", []FieldDef{
			{Name: "n", Kind: Integer, Class: platform.Int},
			{Name: "v", Kind: Integer, Class: platform.Int, StaticDim: 3, LengthField: "n"},
		}},
		{"string static array", []FieldDef{
			{Name: "s", Kind: String, StaticDim: 3},
		}},
		{"struct without sub", []FieldDef{
			{Name: "s", Kind: Struct},
		}},
		{"dup names", []FieldDef{
			{Name: "x", Kind: Integer, Class: platform.Int},
			{Name: "X", Kind: Integer, Class: platform.Int},
		}},
		{"unknown length field", []FieldDef{
			{Name: "v", Kind: Float, Class: platform.Float, LengthField: "missing"},
		}},
		{"length field after array", []FieldDef{
			{Name: "v", Kind: Float, Class: platform.Float, LengthField: "n"},
			{Name: "n", Kind: Integer, Class: platform.Int},
		}},
		{"non-integer length field", []FieldDef{
			{Name: "n", Kind: Float, Class: platform.Float},
			{Name: "v", Kind: Float, Class: platform.Float, LengthField: "n"},
		}},
		{"bad explicit size", []FieldDef{
			{Name: "x", Kind: Integer, Class: platform.Int, ExplicitSize: 3},
		}},
	}
	for _, c := range cases {
		if _, err := Build(c.name, platform.Sparc32, c.defs); err == nil {
			t.Errorf("%s: Build succeeded, want error", c.name)
		}
	}
	if _, err := Build("nilplat", nil, nil); err == nil {
		t.Error("nil platform should error")
	}
}

func TestBuildCrossPlatformSubformat(t *testing.T) {
	inner, _ := Build("Inner", platform.Sparc32, []FieldDef{
		{Name: "x", Kind: Integer, Class: platform.Int},
	})
	if _, err := Build("Outer", platform.X8664, []FieldDef{
		{Name: "a", Kind: Struct, Sub: inner},
	}); err == nil {
		t.Error("mixing subformat platforms should error")
	}
}

func TestExplicitSize(t *testing.T) {
	f, err := Build("Wide", platform.Sparc32, []FieldDef{
		{Name: "v", Kind: Integer, Class: platform.Int, ExplicitSize: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Fields[0].Size != 8 || f.Size != 8 {
		t.Errorf("explicit size: field %d struct %d, want 8, 8", f.Fields[0].Size, f.Size)
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	inner, _ := Build("Point", platform.Sparc32, []FieldDef{
		{Name: "x", Kind: Float, Class: platform.Double},
		{Name: "y", Kind: Float, Class: platform.Double},
	})
	f, err := Build("Everything", platform.Sparc32, []FieldDef{
		{Name: "count", Kind: Integer, Class: platform.Int},
		{Name: "label", Kind: String},
		{Name: "flags", Kind: Boolean, Class: platform.Bool},
		{Name: "grade", Kind: Char, Class: platform.Char},
		{Name: "mode", Kind: Enum, Class: platform.Enum},
		{Name: "fixed", Kind: Unsigned, Class: platform.Short, StaticDim: 5},
		{Name: "vals", Kind: Float, Class: platform.Float, LengthField: "count"},
		{Name: "origin", Kind: Struct, Sub: inner},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := f.Canonical()
	g, err := ParseCanonical(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.ID() != f.ID() {
		t.Errorf("round-tripped ID %s != original %s", g.ID(), f.ID())
	}
	if g.String() != f.String() {
		t.Errorf("round-tripped format differs:\n got %s\nwant %s", g.String(), f.String())
	}
}

func TestParseCanonicalErrors(t *testing.T) {
	f, _ := Build("F", platform.Sparc32, simpleDataDefs())
	good := f.Canonical()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("ZZZZ"), good[4:]...),
		"bad version": func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 99
			return b
		}(),
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte(nil), good...), 0),
	}
	for name, data := range cases {
		if _, err := ParseCanonical(data); err == nil {
			t.Errorf("%s: ParseCanonical succeeded, want error", name)
		}
	}
}

func TestFormatIDDistinguishesLayouts(t *testing.T) {
	defs := simpleDataDefs()
	a, _ := Build("SimpleData", platform.Sparc32, defs)
	b, _ := Build("SimpleData", platform.X8664, defs)
	c, _ := Build("SimpleData", platform.X86, defs)
	if a.ID() == b.ID() {
		t.Error("sparc32 and x86_64 layouts must have different IDs")
	}
	// x86 and sparc32 have identical sizes but different byte order.
	if a.ID() == c.ID() {
		t.Error("byte order must be part of the format identity")
	}
	a2, _ := Build("SimpleData", platform.Sparc32, defs)
	if a.ID() != a2.ID() {
		t.Error("identical formats must have identical IDs")
	}
}

func TestFieldByNameCaseInsensitive(t *testing.T) {
	f, _ := Build("F", platform.Sparc32, simpleDataDefs())
	if f.FieldByName("TIMESTEP") != 0 || f.FieldByName("Data") != 2 {
		t.Error("FieldByName should be case-insensitive")
	}
	if f.FieldByName("nope") != -1 {
		t.Error("FieldByName of unknown field should return -1")
	}
}

func TestValidateRejectsCorrupt(t *testing.T) {
	f, _ := Build("F", platform.Sparc32, simpleDataDefs())

	g := *f
	g.Fields = append([]Field(nil), f.Fields...)
	g.Fields[1].Offset = 2 // overlaps field 0
	if err := g.Validate(); err == nil {
		t.Error("overlapping fields should fail validation")
	}

	h := *f
	h.Size = 8 // field 2 now exceeds struct
	if err := h.Validate(); err == nil {
		t.Error("field beyond struct size should fail validation")
	}

	i := *f
	i.PointerSize = 3
	if err := i.Validate(); err == nil {
		t.Error("bad pointer size should fail validation")
	}

	j := *f
	j.Name = ""
	if err := j.Validate(); err == nil {
		t.Error("empty name should fail validation")
	}
}

func TestValidateRejectsRecursion(t *testing.T) {
	inner, _ := Build("Inner", platform.Sparc32, []FieldDef{
		{Name: "x", Kind: Integer, Class: platform.Int},
	})
	outer, err := Build("Outer", platform.Sparc32, []FieldDef{
		{Name: "in", Kind: Struct, Sub: inner},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Introduce a cycle by hand.
	inner.Fields[0] = Field{Name: "loop", Kind: Struct, Size: outer.Size, Sub: outer}
	inner.Size = outer.Size
	inner.Align = outer.Align
	if err := outer.Validate(); err == nil {
		t.Error("recursive nesting should fail validation")
	}
}

func TestKindHelpers(t *testing.T) {
	if !Integer.Numeric() || !Float.Numeric() || String.Numeric() || Struct.Numeric() {
		t.Error("Numeric() classification wrong")
	}
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if k, ok := KindByName("double"); !ok || k != Float {
		t.Error("alias double should map to Float")
	}
	if k, ok := KindByName("unsigned integer"); !ok || k != Unsigned {
		t.Error("alias 'unsigned integer' should map to Unsigned")
	}
	if _, ok := KindByName("quaternion"); ok {
		t.Error("unknown kind name should not resolve")
	}
	if !strings.Contains(Kind(42).String(), "42") {
		t.Error("out-of-range Kind.String should include the value")
	}
}

func TestFormatString(t *testing.T) {
	f, _ := Build("SimpleData", platform.Sparc32, simpleDataDefs())
	s := f.String()
	for _, want := range []string{"SimpleData", "timestep", "data", "[size]", "BE"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format.String() = %q missing %q", s, want)
		}
	}
}

func TestFormatIDString(t *testing.T) {
	if len(FormatID(0xdeadbeef).String()) != 16 {
		t.Error("FormatID.String should be 16 hex digits")
	}
}
