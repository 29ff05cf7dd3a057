package meta

import (
	"fmt"
	"strings"
)

// Format evolution semantics.
//
// Convertible (below) answers "can this receiver decode that wire field at
// all?"  Evolution answers the stronger registry question: "if a format
// lineage steps from old to new, which deployed parties break?"  Two
// directions matter, named from the reader's point of view:
//
//   - Backward compatibility: a reader bound to the NEW format decodes data
//     written under the OLD format.  Added fields are fine (the old wire
//     lacks them, so the new reader zero-fills — added-with-default).  A
//     shared field may only change type if every old value is exactly
//     representable in the new type (widening).
//
//   - Forward compatibility: a reader still bound to the OLD format decodes
//     data written under the NEW format.  A removed field breaks forward
//     (the old reader loses data it was promised).  A shared field may only
//     change type if every new value is representable in the old type —
//     i.e. the step may narrow, never widen.
//
// "Representable" is the Widens relation below: same-family size growth,
// unsigned-to-wider-signed, char into any integer family wide enough to
// hold a byte.  Shape changes (scalar vs array, static dimension, dynamic
// length field) and kind-family crossings (float vs integer, string vs
// anything else) break both directions.  Nested records recurse: a struct
// field breaks a direction iff its sub-format diff breaks that direction.

// ChangeKind classifies one field-level difference between two versions of
// a format.
type ChangeKind int

const (
	// FieldAdded: the field exists only in the newer format.  Breaks
	// neither direction — old readers skip it, new readers zero-fill when
	// decoding old data.
	FieldAdded ChangeKind = iota
	// FieldRemoved: the field exists only in the older format.  Breaks
	// forward: an old reader decoding new data is zero-filled where it
	// used to receive values.
	FieldRemoved
	// TypeChanged: the field exists in both with the same kind family but
	// a different size (or a lossless family shift such as unsigned to
	// wider signed).  Widening breaks forward, narrowing breaks backward.
	TypeChanged
	// KindChanged: the field crossed kind families (integer vs float,
	// string vs numeric, scalar kind vs struct).  Breaks both directions.
	KindChanged
	// ShapeChanged: the array shape differs — scalar vs array, a
	// different static dimension, or dynamic arrays sized by different
	// length fields.  Breaks both directions.
	ShapeChanged
)

// String returns the wire-stable name of the change kind.
func (k ChangeKind) String() string {
	switch k {
	case FieldAdded:
		return "added"
	case FieldRemoved:
		return "removed"
	case TypeChanged:
		return "type-changed"
	case KindChanged:
		return "kind-changed"
	case ShapeChanged:
		return "shape-changed"
	default:
		return fmt.Sprintf("ChangeKind(%d)", int(k))
	}
}

// ParseChangeKind inverts ChangeKind.String — consumers decoding a
// serialized FieldChange (the registry's CompatError travelling between
// brokers) restore the typed kind from its wire name.
func ParseChangeKind(s string) (ChangeKind, bool) {
	for _, k := range []ChangeKind{FieldAdded, FieldRemoved, TypeChanged, KindChanged, ShapeChanged} {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// FieldChange records one difference between two versions of a format,
// with the compatibility directions it breaks.  Path is the dotted field
// path ("hdr.count" for a field inside a nested record).
type FieldChange struct {
	Path   string     `json:"path"`
	Change ChangeKind `json:"-"`
	Kind   string     `json:"change"` // Change.String(), for machine readers
	Old    string     `json:"old"`    // compact type description, "-" if absent
	New    string     `json:"new"`    // compact type description, "-" if absent
	// BreaksBackward: a reader on the new format cannot losslessly decode
	// old data because of this change.
	BreaksBackward bool `json:"breaks_backward"`
	// BreaksForward: a reader on the old format cannot losslessly decode
	// new data because of this change.
	BreaksForward bool `json:"breaks_forward"`
}

func (c FieldChange) String() string {
	return fmt.Sprintf("%s %s (%s -> %s)", c.Path, c.Change, c.Old, c.New)
}

// EvolutionDiff is the full field-level difference between two versions of
// a format lineage, old preceding new.
type EvolutionDiff struct {
	Changes []FieldChange `json:"changes"`
}

// BackwardCompatible reports whether a reader bound to the new format can
// losslessly decode data written under the old format.
func (d *EvolutionDiff) BackwardCompatible() bool {
	for _, c := range d.Changes {
		if c.BreaksBackward {
			return false
		}
	}
	return true
}

// ForwardCompatible reports whether a reader still bound to the old format
// can losslessly decode data written under the new format.
func (d *EvolutionDiff) ForwardCompatible() bool {
	for _, c := range d.Changes {
		if c.BreaksForward {
			return false
		}
	}
	return true
}

// Breaking returns the subset of changes that break the given directions.
func (d *EvolutionDiff) Breaking(backward, forward bool) []FieldChange {
	var out []FieldChange
	for _, c := range d.Changes {
		if (backward && c.BreaksBackward) || (forward && c.BreaksForward) {
			out = append(out, c)
		}
	}
	return out
}

// EvolveDiff computes the evolution diff from old to new.  Fields are
// matched by case-insensitive name, as the decode plan matches them.
func EvolveDiff(old, new *Format) *EvolutionDiff {
	d := &EvolutionDiff{}
	diffInto(d, "", old, new)
	return d
}

func diffInto(d *EvolutionDiff, prefix string, old, new *Format) {
	newUsed := make([]bool, len(new.Fields))
	for oi := range old.Fields {
		of := &old.Fields[oi]
		path := prefix + of.Name
		ni := new.FieldByName(of.Name)
		if ni < 0 {
			d.add(FieldChange{
				Path: path, Change: FieldRemoved,
				Old: fieldType(of), New: "-",
				BreaksForward: true,
			})
			continue
		}
		newUsed[ni] = true
		nf := &new.Fields[ni]
		if !sameShape(of, nf) {
			d.add(FieldChange{
				Path: path, Change: ShapeChanged,
				Old: fieldShape(of), New: fieldShape(nf),
				BreaksBackward: true, BreaksForward: true,
			})
			continue
		}
		if of.Kind == Struct && nf.Kind == Struct {
			diffInto(d, path+".", of.Sub, nf.Sub)
			continue
		}
		if of.Kind == nf.Kind && of.Size == nf.Size {
			continue
		}
		if !sameFamily(of.Kind, nf.Kind) {
			d.add(FieldChange{
				Path: path, Change: KindChanged,
				Old: fieldType(of), New: fieldType(nf),
				BreaksBackward: !Widens(of, nf), BreaksForward: !Widens(nf, of),
			})
			continue
		}
		d.add(FieldChange{
			Path: path, Change: TypeChanged,
			Old: fieldType(of), New: fieldType(nf),
			BreaksBackward: !Widens(of, nf), BreaksForward: !Widens(nf, of),
		})
	}
	for ni := range new.Fields {
		if !newUsed[ni] {
			nf := &new.Fields[ni]
			d.add(FieldChange{
				Path: prefix + nf.Name, Change: FieldAdded,
				Old: "-", New: fieldType(nf),
			})
		}
	}
}

func (d *EvolutionDiff) add(c FieldChange) {
	c.Kind = c.Change.String()
	d.Changes = append(d.Changes, c)
}

// Widens reports whether every value of the from field's type is exactly
// representable in the to field's type.  This is the per-base-type widening
// table the registry's evolution policies are built on:
//
//	integer  -> integer of equal or larger size
//	unsigned -> unsigned/enum of equal or larger size,
//	            or integer of strictly larger size (room for the sign bit)
//	enum     -> like unsigned (enums are unsigned constants on the wire)
//	char     -> char, unsigned/enum of any size, or integer of size >= 2
//	boolean  -> boolean of any size
//	float    -> float of equal or larger size
//	string   -> string
//
// Float/integer crossings are never widening (neither direction is exact),
// and struct fields are handled by recursion in EvolveDiff, not here.
func Widens(from, to *Field) bool {
	switch from.Kind {
	case Integer:
		return to.Kind == Integer && to.Size >= from.Size
	case Unsigned, Enum:
		switch to.Kind {
		case Unsigned, Enum:
			return to.Size >= from.Size
		case Integer:
			return to.Size > from.Size
		}
		return false
	case Char:
		switch to.Kind {
		case Char, Unsigned, Enum:
			return true
		case Integer:
			return to.Size >= 2
		}
		return false
	case Boolean:
		return to.Kind == Boolean
	case Float:
		return to.Kind == Float && to.Size >= from.Size
	case String:
		return to.Kind == String
	default:
		return false
	}
}

// sameShape reports whether two fields agree on array shape: both scalar,
// both static arrays of the same dimension, or both dynamic arrays sized by
// the same length field.  Scalar-kind-vs-struct is a shape question too: a
// struct cannot occupy a scalar slot.
func sameShape(a, b *Field) bool {
	if a.IsDynamic() != b.IsDynamic() || a.IsStaticArray() != b.IsStaticArray() {
		return false
	}
	if a.IsStaticArray() && a.StaticDim != b.StaticDim {
		return false
	}
	if a.IsDynamic() && !strings.EqualFold(a.LengthField, b.LengthField) {
		return false
	}
	if (a.Kind == Struct) != (b.Kind == Struct) {
		return false
	}
	return true
}

// sameFamily groups kinds that TypeChanged (rather than KindChanged) covers:
// the signed/unsigned/enum/char integer family, and each remaining kind
// alone.
func sameFamily(a, b Kind) bool {
	fam := func(k Kind) int {
		switch k {
		case Integer, Unsigned, Enum, Char:
			return 0
		default:
			return int(k) + 1
		}
	}
	return fam(a) == fam(b)
}

// fieldType renders a compact type description for diffs: "integer:4",
// "struct{point}", "string".
func fieldType(f *Field) string {
	base := ""
	switch f.Kind {
	case Struct:
		name := ""
		if f.Sub != nil {
			name = f.Sub.Name
		}
		base = "struct{" + name + "}"
	case String:
		base = "string"
	default:
		base = fmt.Sprintf("%s:%d", strings.ToLower(f.Kind.String()), f.Size)
	}
	return base + arraySuffix(f)
}

// fieldShape renders the shape part alone, for ShapeChanged diffs.
func fieldShape(f *Field) string {
	kind := "scalar"
	if f.Kind == Struct {
		kind = "struct"
	}
	return kind + arraySuffix(f)
}

func arraySuffix(f *Field) string {
	switch {
	case f.IsDynamic():
		return "[" + f.LengthField + "]"
	case f.IsStaticArray():
		return fmt.Sprintf("[%d]", f.StaticDim)
	default:
		return ""
	}
}

// Convertible reports whether a wire field's values can be decoded into a
// native field under PBIO's matching rules: array shapes must agree
// (dynamic arrays must be sized by the same length field), numeric kinds
// convert freely across widths and signedness, strings match strings, and
// nested records match recursively: every field the two records share by
// (case-insensitive) name must be convertible.
func Convertible(wire, native *Field) error {
	switch {
	case wire.IsDynamic() != native.IsDynamic():
		return fmt.Errorf("dynamic array mismatch (wire %v, native %v)", wire.IsDynamic(), native.IsDynamic())
	case wire.StaticDim != native.StaticDim:
		return fmt.Errorf("static array mismatch (wire dim %d, native dim %d)", wire.StaticDim, native.StaticDim)
	}
	if wire.IsDynamic() && !strings.EqualFold(wire.LengthField, native.LengthField) {
		return fmt.Errorf("dynamic arrays sized by different fields (%q vs %q)", wire.LengthField, native.LengthField)
	}
	switch {
	case wire.Kind.Numeric() && native.Kind.Numeric():
		return nil
	case wire.Kind == String && native.Kind == String:
		return nil
	case wire.Kind == Struct && native.Kind == Struct:
		for i := range wire.Sub.Fields {
			wf := &wire.Sub.Fields[i]
			if ni := native.Sub.FieldByName(wf.Name); ni >= 0 {
				if err := Convertible(wf, &native.Sub.Fields[ni]); err != nil {
					return fmt.Errorf("meta: format %q field %q: %w", wire.Sub.Name, wf.Name, err)
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("kinds %s and %s are not convertible", wire.Kind, native.Kind)
	}
}
