// Package meta defines the native metadata model shared by every binary
// communication mechanism (BCM) in this repository.
//
// A Format describes a message as a record of typed Fields, each with a
// wire size and a byte offset inside a fixed-size block laid out exactly
// like a C struct on some platform (see internal/platform).  Formats are
// the "native metadata" of the paper: compiled-in PBIO field lists and
// run-time XMIT translations of XML Schema documents both produce values
// of this type, which is what makes marshaling performance independent of
// how the metadata was discovered.
//
// Formats have a canonical binary serialisation (see Canonical) used both
// to derive stable 64-bit format identifiers and to ship metadata across
// the network (in-band on a connection, or through the format server).
package meta

import (
	"fmt"
	"strings"
	"unsafe"
)

// Kind classifies the value stored in a field.
type Kind int

const (
	// Integer is a signed two's-complement integer of Field.Size bytes.
	Integer Kind = iota
	// Unsigned is an unsigned integer of Field.Size bytes.
	Unsigned
	// Float is an IEEE-754 floating point value (Size 4 or 8).
	Float
	// Char is a single character byte.
	Char
	// Boolean is a true/false value of Field.Size bytes.
	Boolean
	// Enum is an enumeration constant, stored as an unsigned integer.
	Enum
	// String is a variable-length character string.  Its slot in the
	// fixed block is a pointer-sized offset into the variable section.
	String
	// Struct is a nested record described by Field.Sub.
	Struct

	numKinds
)

var kindNames = [...]string{
	Integer: "integer", Unsigned: "unsigned", Float: "float",
	Char: "char", Boolean: "boolean", Enum: "enum",
	String: "string", Struct: "struct",
}

// String returns the PBIO-style name of the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// KindByName returns the Kind with the given PBIO-style name.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	// Accept common aliases used in PBIO field lists.
	switch name {
	case "unsigned integer":
		return Unsigned, true
	case "double":
		return Float, true
	}
	return 0, false
}

// Numeric reports whether the kind holds a numeric (convertible) value.
func (k Kind) Numeric() bool {
	switch k {
	case Integer, Unsigned, Float, Char, Boolean, Enum:
		return true
	}
	return false
}

// Field describes one member of a record.
type Field struct {
	// Name is the field name.  Matching between wire and native formats
	// is by case-insensitive name, which is what allows formats to
	// evolve without breaking old receivers.
	Name string
	// Kind is the value classification.
	Kind Kind
	// Size is the wire size in bytes of one element of the field.  For
	// String fields it is the size of one character (always 1); the slot
	// occupied in the fixed block is pointer-sized instead.
	Size int
	// Offset is the byte offset of the field's slot in the fixed block.
	Offset int
	// StaticDim is the element count for a static array, or 0 for a
	// scalar.
	StaticDim int
	// LengthField names the integer field holding the run-time element
	// count of a dynamic array; empty for non-dynamic fields.  Dynamic
	// arrays occupy a pointer-sized slot in the fixed block.
	LengthField string
	// Sub describes the nested record for Kind Struct.
	Sub *Format
}

// IsDynamic reports whether the field is a dynamic (run-time sized) array.
func (f *Field) IsDynamic() bool { return f.LengthField != "" }

// IsStaticArray reports whether the field is a fixed-size array.
func (f *Field) IsStaticArray() bool { return f.StaticDim > 0 }

// SlotSize returns the number of bytes the field occupies in the fixed
// block of a format whose pointers are ptrSize bytes wide.
func (f *Field) SlotSize(ptrSize int) int {
	if f.Kind == String || f.IsDynamic() {
		return ptrSize
	}
	n := f.Size
	if f.StaticDim > 0 {
		n *= f.StaticDim
	}
	return n
}

// Format describes a complete message format.
//
// A Format is immutable once its ID has been taken, which registering it
// anywhere does: the ID is memoised on the format, and contexts, channels
// and views key registered formats by pointer.  To describe a different
// layout, build a new Format — a by-value copy may be changed freely, since
// it computes its own ID.
type Format struct {
	// Name is the format (message type) name.
	Name string
	// Fields lists the record members in declaration order.
	Fields []Field
	// Size is the size in bytes of the fixed block (the C struct image).
	Size int
	// Align is the struct alignment in bytes.
	Align int
	// PointerSize is the width of pointer slots in the fixed block.
	PointerSize int
	// BigEndian reports the byte order used for multi-byte values.
	BigEndian bool
	// Platform records the name of the platform whose ABI determined
	// the layout (informational).
	Platform string

	// id is the memoised ID, an *idMemo read and written atomically (see
	// ID).  It is a bare unsafe.Pointer rather than an atomic.Pointer
	// because formats are copied by value, and atomic.Pointer's noCopy
	// marker would make go vet reject every such copy.
	id unsafe.Pointer
}

// FieldByName returns the index of the field with the given name
// (case-insensitive), or -1.
func (f *Format) FieldByName(name string) int {
	for i := range f.Fields {
		if strings.EqualFold(f.Fields[i].Name, name) {
			return i
		}
	}
	return -1
}

// HasVariablePart reports whether encoding a record of this format can
// produce data beyond the fixed block (strings or dynamic arrays, possibly
// inside nested structs).
func (f *Format) HasVariablePart() bool {
	for i := range f.Fields {
		fl := &f.Fields[i]
		if fl.Kind == String || fl.IsDynamic() {
			return true
		}
		if fl.Kind == Struct && fl.Sub.HasVariablePart() {
			return true
		}
	}
	return false
}

// FieldCount returns the total number of leaf (non-struct) fields,
// counting nested records recursively.  The paper observes that
// registration cost tracks this complexity measure rather than raw byte
// size.
func (f *Format) FieldCount() int {
	n := 0
	for i := range f.Fields {
		if f.Fields[i].Kind == Struct {
			n += f.Fields[i].Sub.FieldCount()
		} else {
			n++
		}
	}
	return n
}

// String returns a compact human-readable description of the format.
func (f *Format) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{size=%d align=%d %s", f.Name, f.Size, f.Align, orderName(f.BigEndian))
	for i := range f.Fields {
		fl := &f.Fields[i]
		fmt.Fprintf(&b, "; %s %s", fl.Name, fl.Kind)
		if fl.Kind == Struct {
			fmt.Fprintf(&b, "(%s)", fl.Sub.Name)
		}
		if fl.StaticDim > 0 {
			fmt.Fprintf(&b, "[%d]", fl.StaticDim)
		}
		if fl.IsDynamic() {
			fmt.Fprintf(&b, "[%s]", fl.LengthField)
		}
		fmt.Fprintf(&b, "@%d:%d", fl.Offset, fl.Size)
	}
	b.WriteString("}")
	return b.String()
}

func orderName(big bool) string {
	if big {
		return "BE"
	}
	return "LE"
}
