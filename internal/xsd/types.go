// Package xsd models the subset of the XML Schema specification that the
// XMIT toolkit uses to describe message formats: named complexType
// definitions composed of element declarations whose types are either XML
// Schema built-in simple types or previously defined complexTypes, with the
// paper's array conventions (maxOccurs numeric / "*" / field name, and the
// dimensionName / dimensionPlacement extension for dynamically sized data).
//
// Parse translates a schema document in one pass over internal/dom's
// tokens, building no element tree; Schema.String renders a schema back
// into a document.
package xsd

import (
	"fmt"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/platform"
)

// Occurs describes the array multiplicity of an element declaration.
type Occurs int

const (
	// OccursOne is a plain scalar element.
	OccursOne Occurs = iota
	// OccursStatic is a fixed-size array (maxOccurs="N").
	OccursStatic
	// OccursDynamic is a run-time sized array (maxOccurs="*" or
	// maxOccurs names a sizing field).
	OccursDynamic
)

// ElementDecl is one element inside a complexType.
type ElementDecl struct {
	// Name is the element (field) name.
	Name string
	// Doc is the element's xsd:annotation/xsd:documentation text, if any.
	Doc string
	// TypeName is the type attribute as written, e.g. "xsd:integer" or
	// "JoinRequest".
	TypeName string
	// Builtin is the XML Schema built-in local name when TypeName
	// resolves to one ("integer", "unsignedLong", ...), else empty.
	Builtin string
	// Ref is the referenced complexType name when the type is not a
	// built-in.
	Ref string
	// Occurs classifies the multiplicity.
	Occurs Occurs
	// StaticDim is the array size for OccursStatic.
	StaticDim int
	// DimField names the element holding the run-time length for
	// OccursDynamic.
	DimField string
	// Synthesized marks length elements created implicitly by a
	// dimensionName that references no declared element (the paper's
	// dimensionPlacement="before" convention).
	Synthesized bool
	// MinOccurs is recorded for diagnostics (0 or 1).
	MinOccurs int
}

// ComplexType is a named record type.
type ComplexType struct {
	Name string
	// Doc is the type's xsd:annotation/xsd:documentation text, if any.
	Doc      string
	Elements []*ElementDecl
}

// EnumType is a named enumeration defined with the standard XML Schema
// idiom (<simpleType><restriction><enumeration .../>).  On the wire an
// enumeration is an unsigned integer index into Values; the symbolic names
// live in the metadata, where the paper wants them — visible to
// non-programmer users.
type EnumType struct {
	Name string
	// Doc is the type's xsd:annotation/xsd:documentation text, if any.
	Doc    string
	Values []string
}

// Index returns the wire value of a symbolic name, or -1.
func (e *EnumType) Index(value string) int {
	for i, v := range e.Values {
		if v == value {
			return i
		}
	}
	return -1
}

// Value returns the symbolic name of a wire value, or "".
func (e *EnumType) Value(i int) string {
	if i < 0 || i >= len(e.Values) {
		return ""
	}
	return e.Values[i]
}

// Schema is a set of complexTypes (and enumerations) from one document.
type Schema struct {
	Types []*ComplexType
	Enums []*EnumType
	// Includes lists the schemaLocation values of xsd:include elements;
	// the toolkit resolves them relative to the document's own URL.
	Includes []string
}

// EnumByName returns the enumeration with the given name, or nil.
func (s *Schema) EnumByName(name string) *EnumType {
	for _, e := range s.Enums {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// TypeByName returns the complexType with the given name, or nil.
func (s *Schema) TypeByName(name string) *ComplexType {
	for _, ct := range s.Types {
		if ct.Name == name {
			return ct
		}
	}
	return nil
}

// builtin describes the native mapping of one XML Schema simple type, as
// the paper's Section 3.1 prescribes: selecting a native metadata system
// implicitly selects a mapping from XML Schema data types to native ones.
type builtin struct {
	kind  meta.Kind
	class platform.Class
}

// builtins maps XML Schema built-in simple type local names to native
// field kinds and C type classes.
var builtins = map[string]builtin{
	"string":             {meta.String, platform.Pointer},
	"boolean":            {meta.Boolean, platform.Bool},
	"byte":               {meta.Integer, platform.Char},
	"unsignedByte":       {meta.Unsigned, platform.Char},
	"short":              {meta.Integer, platform.Short},
	"unsignedShort":      {meta.Unsigned, platform.Short},
	"int":                {meta.Integer, platform.Int},
	"integer":            {meta.Integer, platform.Int},
	"unsignedInt":        {meta.Unsigned, platform.Int},
	"long":               {meta.Integer, platform.Long},
	"unsignedLong":       {meta.Unsigned, platform.Long},
	"nonNegativeInteger": {meta.Unsigned, platform.Int},
	"positiveInteger":    {meta.Unsigned, platform.Int},
	"float":              {meta.Float, platform.Float},
	"double":             {meta.Float, platform.Double},
	"decimal":            {meta.Float, platform.Double},
}

// IsBuiltin reports whether the local name is a supported XML Schema
// built-in simple type.
func IsBuiltin(local string) bool {
	_, ok := builtins[local]
	return ok
}

// BuiltinMapping returns the native kind and platform class for a built-in
// simple type name.
func BuiltinMapping(local string) (meta.Kind, platform.Class, error) {
	b, ok := builtins[local]
	if !ok {
		return 0, 0, fmt.Errorf("xsd: unsupported built-in type %q", local)
	}
	return b.kind, b.class, nil
}

// Validate checks structural rules that do not require resolving type
// references across documents: unique type names, unique element names
// within a type, dynamic dimension fields that resolve to integer
// elements, and well-formed enumerations.
func (s *Schema) Validate() error {
	typeSeen := map[string]bool{}
	for _, e := range s.Enums {
		if e.Name == "" {
			return fmt.Errorf("xsd: simpleType enumeration with no name")
		}
		if typeSeen[e.Name] {
			return fmt.Errorf("xsd: duplicate type name %q", e.Name)
		}
		typeSeen[e.Name] = true
		if len(e.Values) == 0 {
			return fmt.Errorf("xsd: enumeration %q has no values", e.Name)
		}
		valSeen := map[string]bool{}
		for _, v := range e.Values {
			if v == "" {
				return fmt.Errorf("xsd: enumeration %q has an empty value", e.Name)
			}
			if valSeen[v] {
				return fmt.Errorf("xsd: enumeration %q repeats value %q", e.Name, v)
			}
			valSeen[v] = true
		}
	}
	for _, ct := range s.Types {
		if ct.Name == "" {
			return fmt.Errorf("xsd: complexType with no name attribute")
		}
		if typeSeen[ct.Name] {
			return fmt.Errorf("xsd: duplicate type name %q", ct.Name)
		}
		typeSeen[ct.Name] = true
		if err := ct.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (ct *ComplexType) validate() error {
	byName := map[string]*ElementDecl{}
	for _, el := range ct.Elements {
		if el.Name == "" {
			return fmt.Errorf("xsd: complexType %q: element with no name", ct.Name)
		}
		if byName[el.Name] != nil {
			return fmt.Errorf("xsd: complexType %q: duplicate element %q", ct.Name, el.Name)
		}
		byName[el.Name] = el
		if el.Builtin == "" && el.Ref == "" {
			return fmt.Errorf("xsd: complexType %q: element %q has no type", ct.Name, el.Name)
		}
	}
	for _, el := range ct.Elements {
		if el.Occurs != OccursDynamic {
			continue
		}
		dim, ok := byName[el.DimField]
		if !ok {
			return fmt.Errorf("xsd: complexType %q: element %q sized by undeclared element %q",
				ct.Name, el.Name, el.DimField)
		}
		if dim.Occurs != OccursOne {
			return fmt.Errorf("xsd: complexType %q: dimension element %q must be a scalar",
				ct.Name, el.DimField)
		}
		if b, ok := builtins[dim.Builtin]; !ok || (b.kind != meta.Integer && b.kind != meta.Unsigned) {
			return fmt.Errorf("xsd: complexType %q: dimension element %q must have an integer type, has %q",
				ct.Name, el.DimField, dim.TypeName)
		}
	}
	return nil
}
