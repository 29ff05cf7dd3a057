package meta

import (
	"strings"
	"testing"

	"github.com/open-metadata/xmit/internal/platform"
)

// build is a test helper: Build on x86_64 or fail.
func build(t *testing.T, name string, defs []FieldDef) *Format {
	t.Helper()
	f, err := Build(name, platform.X8664, defs)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return f
}

func TestEvolveDiffTable(t *testing.T) {
	point := []FieldDef{
		{Name: "x", Kind: Float, Class: platform.Double},
		{Name: "y", Kind: Float, Class: platform.Double},
	}
	point3 := append(append([]FieldDef{}, point...),
		FieldDef{Name: "z", Kind: Float, Class: platform.Double})
	pointNarrow := []FieldDef{
		{Name: "x", Kind: Float, Class: platform.Float},
		{Name: "y", Kind: Float, Class: platform.Double},
	}

	cases := []struct {
		name         string
		old, new     []FieldDef
		oldSub       map[string]*Format // Sub wiring by field name
		newSub       map[string]*Format
		wantChanges  int
		wantBackward bool
		wantForward  bool
		wantPath     string // a path that must appear in the diff ("" = none)
		wantChange   ChangeKind
	}{
		{
			name: "identical",
			old: []FieldDef{
				{Name: "n", Kind: Integer, Class: platform.Int},
			},
			new: []FieldDef{
				{Name: "n", Kind: Integer, Class: platform.Int},
			},
			wantChanges: 0, wantBackward: true, wantForward: true,
		},
		{
			name: "added field is default-ok both ways",
			old: []FieldDef{
				{Name: "n", Kind: Integer, Class: platform.Int},
			},
			new: []FieldDef{
				{Name: "n", Kind: Integer, Class: platform.Int},
				{Name: "tag", Kind: String},
			},
			wantChanges: 1, wantBackward: true, wantForward: true,
			wantPath: "tag", wantChange: FieldAdded,
		},
		{
			name: "removed field breaks forward only",
			old: []FieldDef{
				{Name: "n", Kind: Integer, Class: platform.Int},
				{Name: "tag", Kind: String},
			},
			new: []FieldDef{
				{Name: "n", Kind: Integer, Class: platform.Int},
			},
			wantChanges: 1, wantBackward: true, wantForward: false,
			wantPath: "tag", wantChange: FieldRemoved,
		},
		{
			name: "integer widening breaks forward only",
			old: []FieldDef{
				{Name: "n", Kind: Integer, Class: platform.Int},
			},
			new: []FieldDef{
				{Name: "n", Kind: Integer, Class: platform.LongLong},
			},
			wantChanges: 1, wantBackward: true, wantForward: false,
			wantPath: "n", wantChange: TypeChanged,
		},
		{
			name: "integer narrowing breaks backward only",
			old: []FieldDef{
				{Name: "n", Kind: Integer, Class: platform.LongLong},
			},
			new: []FieldDef{
				{Name: "n", Kind: Integer, Class: platform.Int},
			},
			wantChanges: 1, wantBackward: false, wantForward: true,
			wantPath: "n", wantChange: TypeChanged,
		},
		{
			name: "enum width growth breaks forward only",
			old: []FieldDef{
				{Name: "mode", Kind: Enum, Class: platform.Char, ExplicitSize: 1},
			},
			new: []FieldDef{
				{Name: "mode", Kind: Enum, Class: platform.Int, ExplicitSize: 4},
			},
			wantChanges: 1, wantBackward: true, wantForward: false,
			wantPath: "mode", wantChange: TypeChanged,
		},
		{
			name: "enum to wider signed integer is backward-safe",
			old: []FieldDef{
				{Name: "mode", Kind: Enum, Class: platform.Char, ExplicitSize: 1},
			},
			new: []FieldDef{
				{Name: "mode", Kind: Integer, Class: platform.Int, ExplicitSize: 4},
			},
			wantChanges: 1, wantBackward: true, wantForward: false,
			wantPath: "mode", wantChange: TypeChanged,
		},
		{
			name: "signed to unsigned breaks both",
			old: []FieldDef{
				{Name: "n", Kind: Integer, Class: platform.Int},
			},
			new: []FieldDef{
				{Name: "n", Kind: Unsigned, Class: platform.Int},
			},
			wantChanges: 1, wantBackward: false, wantForward: false,
			wantPath: "n", wantChange: TypeChanged,
		},
		{
			name: "float to integer crossing breaks both",
			old: []FieldDef{
				{Name: "v", Kind: Float, Class: platform.Double},
			},
			new: []FieldDef{
				{Name: "v", Kind: Integer, Class: platform.LongLong},
			},
			wantChanges: 1, wantBackward: false, wantForward: false,
			wantPath: "v", wantChange: KindChanged,
		},
		{
			name: "static dim change breaks both",
			old: []FieldDef{
				{Name: "grid", Kind: Integer, Class: platform.Int, StaticDim: 3},
			},
			new: []FieldDef{
				{Name: "grid", Kind: Integer, Class: platform.Int, StaticDim: 4},
			},
			wantChanges: 1, wantBackward: false, wantForward: false,
			wantPath: "grid", wantChange: ShapeChanged,
		},
		{
			name: "dynamic array length-field rename breaks both",
			old: []FieldDef{
				{Name: "size", Kind: Integer, Class: platform.Int},
				{Name: "count", Kind: Integer, Class: platform.Int},
				{Name: "data", Kind: Float, Class: platform.Double, LengthField: "size"},
			},
			new: []FieldDef{
				{Name: "size", Kind: Integer, Class: platform.Int},
				{Name: "count", Kind: Integer, Class: platform.Int},
				{Name: "data", Kind: Float, Class: platform.Double, LengthField: "count"},
			},
			wantChanges: 1, wantBackward: false, wantForward: false,
			wantPath: "data", wantChange: ShapeChanged,
		},
		{
			name: "scalar to dynamic array breaks both",
			old: []FieldDef{
				{Name: "size", Kind: Integer, Class: platform.Int},
				{Name: "v", Kind: Float, Class: platform.Double},
			},
			new: []FieldDef{
				{Name: "size", Kind: Integer, Class: platform.Int},
				{Name: "v", Kind: Float, Class: platform.Double, LengthField: "size"},
			},
			wantChanges: 1, wantBackward: false, wantForward: false,
			wantPath: "v", wantChange: ShapeChanged,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := build(t, "old", tc.old)
			new := build(t, "new", tc.new)
			d := EvolveDiff(old, new)
			if len(d.Changes) != tc.wantChanges {
				t.Fatalf("changes = %v, want %d entries", d.Changes, tc.wantChanges)
			}
			if got := d.BackwardCompatible(); got != tc.wantBackward {
				t.Errorf("BackwardCompatible = %v, want %v (%v)", got, tc.wantBackward, d.Changes)
			}
			if got := d.ForwardCompatible(); got != tc.wantForward {
				t.Errorf("ForwardCompatible = %v, want %v (%v)", got, tc.wantForward, d.Changes)
			}
			if tc.wantPath != "" {
				found := false
				for _, c := range d.Changes {
					if c.Path == tc.wantPath && c.Change == tc.wantChange {
						found = true
					}
				}
				if !found {
					t.Errorf("diff %v missing %s %s", d.Changes, tc.wantPath, tc.wantChange)
				}
			}
		})
	}

	t.Run("nested record recursion", func(t *testing.T) {
		sub2 := build(t, "point", point)
		sub3 := build(t, "point", point3)
		old := build(t, "shape", []FieldDef{
			{Name: "id", Kind: Integer, Class: platform.Int},
			{Name: "origin", Kind: Struct, Sub: sub2},
		})
		new := build(t, "shape", []FieldDef{
			{Name: "id", Kind: Integer, Class: platform.Int},
			{Name: "origin", Kind: Struct, Sub: sub3},
		})
		d := EvolveDiff(old, new)
		if len(d.Changes) != 1 || d.Changes[0].Path != "origin.z" || d.Changes[0].Change != FieldAdded {
			t.Fatalf("nested diff = %v, want one added origin.z", d.Changes)
		}
		if !d.BackwardCompatible() || !d.ForwardCompatible() {
			t.Errorf("nested field addition should break neither direction: %v", d.Changes)
		}

		// A narrowing inside the nested record must break backward at the
		// dotted path.
		subNarrow := build(t, "point", pointNarrow)
		new2 := build(t, "shape", []FieldDef{
			{Name: "id", Kind: Integer, Class: platform.Int},
			{Name: "origin", Kind: Struct, Sub: subNarrow},
		})
		d2 := EvolveDiff(old, new2)
		if d2.BackwardCompatible() {
			t.Errorf("nested narrowing should break backward: %v", d2.Changes)
		}
		if !d2.ForwardCompatible() {
			t.Errorf("nested narrowing should not break forward: %v", d2.Changes)
		}
		if len(d2.Changes) != 1 || d2.Changes[0].Path != "origin.x" {
			t.Fatalf("nested diff = %v, want one change at origin.x", d2.Changes)
		}
	})
}

// TestConvertibleExported covers the matching rules the registry leans on,
// across the shapes that trip people up.
func TestConvertibleExported(t *testing.T) {
	sub := build(t, "hdr", []FieldDef{
		{Name: "seq", Kind: Unsigned, Class: platform.Int},
	})
	subOther := build(t, "hdr", []FieldDef{
		{Name: "seq", Kind: String},
	})
	scalarInt := Field{Name: "a", Kind: Integer, Size: 4}
	cases := []struct {
		name   string
		wire   Field
		native Field
		ok     bool
	}{
		{"numeric widths convert freely", Field{Name: "a", Kind: Unsigned, Size: 8}, scalarInt, true},
		{"string matches string", Field{Name: "s", Kind: String, Size: 1}, Field{Name: "s", Kind: String, Size: 1}, true},
		{"string vs numeric rejected", Field{Name: "s", Kind: String, Size: 1}, scalarInt, false},
		{"dynamic vs scalar rejected",
			Field{Name: "a", Kind: Integer, Size: 4, LengthField: "n"}, scalarInt, false},
		{"dynamic arrays need same length field",
			Field{Name: "a", Kind: Integer, Size: 4, LengthField: "n"},
			Field{Name: "a", Kind: Integer, Size: 4, LengthField: "m"}, false},
		{"dynamic length field matches case-insensitively",
			Field{Name: "a", Kind: Integer, Size: 4, LengthField: "N"},
			Field{Name: "a", Kind: Integer, Size: 4, LengthField: "n"}, true},
		{"static dims must agree",
			Field{Name: "a", Kind: Integer, Size: 4, StaticDim: 3},
			Field{Name: "a", Kind: Integer, Size: 4, StaticDim: 4}, false},
		{"structs recurse",
			Field{Name: "h", Kind: Struct, Size: 4, Sub: sub},
			Field{Name: "h", Kind: Struct, Size: 4, Sub: sub}, true},
		{"struct recursion sees inner mismatch",
			Field{Name: "h", Kind: Struct, Size: 4, Sub: subOther},
			Field{Name: "h", Kind: Struct, Size: 4, Sub: sub}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Convertible(&tc.wire, &tc.native)
			if (err == nil) != tc.ok {
				t.Errorf("Convertible = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestWidensTable(t *testing.T) {
	f := func(k Kind, size int) *Field { return &Field{Kind: k, Size: size} }
	cases := []struct {
		name     string
		from, to *Field
		want     bool
	}{
		{"int4 to int8", f(Integer, 4), f(Integer, 8), true},
		{"int8 to int4", f(Integer, 8), f(Integer, 4), false},
		{"uint4 to uint8", f(Unsigned, 4), f(Unsigned, 8), true},
		{"uint4 to int8", f(Unsigned, 4), f(Integer, 8), true},
		{"uint4 to int4 needs sign bit", f(Unsigned, 4), f(Integer, 4), false},
		{"int4 to uint8 loses negatives", f(Integer, 4), f(Unsigned, 8), false},
		{"enum1 to enum4", f(Enum, 1), f(Enum, 4), true},
		{"enum4 to uint4", f(Enum, 4), f(Unsigned, 4), true},
		{"char to uint1", f(Char, 1), f(Unsigned, 1), true},
		{"char to int1 too narrow", f(Char, 1), f(Integer, 1), false},
		{"char to int2", f(Char, 1), f(Integer, 2), true},
		{"bool to bool", f(Boolean, 1), f(Boolean, 4), true},
		{"bool to int", f(Boolean, 1), f(Integer, 4), false},
		{"float4 to float8", f(Float, 4), f(Float, 8), true},
		{"float8 to float4", f(Float, 8), f(Float, 4), false},
		{"int to float never exact", f(Integer, 4), f(Float, 8), false},
		{"float to int never exact", f(Float, 4), f(Integer, 8), false},
		{"string to string", f(String, 1), f(String, 1), true},
	}
	for _, tc := range cases {
		if got := Widens(tc.from, tc.to); got != tc.want {
			t.Errorf("%s: Widens = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestEvolutionDiffBreaking(t *testing.T) {
	old := build(t, "v1", []FieldDef{
		{Name: "keep", Kind: Integer, Class: platform.Int},
		{Name: "gone", Kind: Integer, Class: platform.Int},
		{Name: "w", Kind: Integer, Class: platform.Int},
	})
	new := build(t, "v2", []FieldDef{
		{Name: "keep", Kind: Integer, Class: platform.Int},
		{Name: "w", Kind: Integer, Class: platform.LongLong},
		{Name: "fresh", Kind: String},
	})
	d := EvolveDiff(old, new)
	fwd := d.Breaking(false, true)
	if len(fwd) != 2 {
		t.Fatalf("forward-breaking = %v, want removal of gone and widening of w", fwd)
	}
	for _, c := range fwd {
		if c.Path != "gone" && c.Path != "w" {
			t.Errorf("unexpected forward-breaking change %v", c)
		}
	}
	if got := d.Breaking(true, false); len(got) != 0 {
		t.Errorf("backward-breaking = %v, want none", got)
	}
	// The diff strings must name the offending fields — this is what the
	// registry surfaces in CompatError.
	joined := ""
	for _, c := range fwd {
		joined += c.String() + ";"
	}
	if !strings.Contains(joined, "gone") || !strings.Contains(joined, "w") {
		t.Errorf("diff strings %q do not name the offending fields", joined)
	}
}
