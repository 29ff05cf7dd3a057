package xsd

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/open-metadata/xmit/internal/dom"
)

// ParseBytes parses an XML Schema document and extracts its complexType
// definitions, following the paper's conventions:
//
//   - Every named complexType defines one message format.
//   - element declarations reference built-in simple types (any prefix
//     bound to the XML Schema namespace) or previously defined
//     complexTypes.
//   - maxOccurs="N" declares a static array, maxOccurs="*" (or
//     "unbounded") a dynamically allocated array whose length element is
//     named by dimensionName, and maxOccurs="fieldName" a dynamic array
//     sized by the named element.
//   - A dimensionName that references no declared element implicitly
//     introduces an integer element placed just before the array
//     (dimensionPlacement="before", the only supported placement).
//
// The schema's strings share one copy of data.
func ParseBytes(data []byte) (*Schema, error) {
	return ParseString(string(data))
}

// ParseString parses a schema held in a string; the schema's strings are
// substrings of s.
func ParseString(s string) (*Schema, error) {
	tr := translator{schema: &Schema{}}
	return tr.run(dom.NewTokenizer(s))
}

// The translator reads the document's tokens once, in order, and builds no
// element tree.  It applies the rules a tree walk over the whole document
// would: include and simpleType count only as children of the root,
// complexType anywhere below it, and element anywhere below a complexType
// (so both the paper's bare style and <xsd:sequence> wrappers work).  A
// definition's Doc is the text of the first documentation child of its
// first annotation child.  Errors take the precedence of that walk, not the
// order in which the stream meets them: a syntax error anywhere wins, then
// the root, then includes, simpleTypes and complexTypes — of these, the
// first in document order — then an empty document, then Validate.
type translator struct {
	schema *Schema
	stack  []frame // open elements, the root first
	openCT []int   // stack indices of the open complexType frames

	rootErr, includeErr, simpleErr error
	// complexErr is the error of the first complexType in document order
	// that has one; complexErrAt is that complexType's ordinal.
	complexErr   error
	complexErrAt int
	complexTypes int // complexTypes started so far
}

type frameKind uint8

const (
	otherFrame         frameKind = iota
	simpleTypeFrame              // a simpleType child of the root
	restrictionFrame             // the first restriction child of a simpleTypeFrame
	complexTypeFrame             // a complexType
	elementFrame                 // an element declared in at least one complexType
	annotationFrame              // the first annotation child of one of the three above
	documentationFrame           // the first documentation child of an annotationFrame
)

// frame is one open element.
type frame struct {
	kind  frameKind
	local string
	// annotated is set once the frame's first annotation child (or, on an
	// annotationFrame, its first documentation child) has started.
	annotated bool
	// restricted is set once a simpleTypeFrame's first restriction child
	// has started.
	restricted bool

	enum *EnumType    // simpleTypeFrame, restrictionFrame
	ct   *ComplexType // complexTypeFrame
	at   int          // complexTypeFrame: ordinal in document order
	err  error        // complexTypeFrame: the first error in its subtree
	decl *ElementDecl // elementFrame; shared by every complexType declaring it
	text string       // documentationFrame: direct character data so far
}

func (tr *translator) run(tz *dom.Tokenizer) (*Schema, error) {
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xsd: %w", err)
		}
		switch tok.Kind {
		case dom.StartElement:
			tr.start(tok)
		case dom.EndElement:
			tr.end()
		case dom.CharData:
			if f := &tr.stack[len(tr.stack)-1]; f.kind == documentationFrame {
				f.text += tok.Text
			}
		}
	}
	for _, err := range []error{tr.rootErr, tr.includeErr, tr.simpleErr, tr.complexErr} {
		if err != nil {
			return nil, err
		}
	}
	s := tr.schema
	if len(s.Types) == 0 && len(s.Includes) == 0 && len(s.Enums) == 0 {
		return nil, fmt.Errorf("xsd: document defines no complexType")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func (tr *translator) start(tok *dom.Token) {
	f := frame{local: tok.Local}
	depth := len(tr.stack)
	var parent *frame
	if depth > 0 {
		parent = &tr.stack[depth-1]
	}
	switch {
	case depth == 0:
		if tok.Local != "schema" {
			tr.rootErr = fmt.Errorf("xsd: root element is <%s>, want <schema>", tok.Local)
		}
	case tr.rootErr != nil:
		// Not a schema: only the syntax check is left to run.
	case depth == 1 && tok.Local == "include":
		loc, ok := tok.Attr("schemaLocation")
		if !ok || loc == "" {
			if tr.includeErr == nil {
				tr.includeErr = fmt.Errorf("xsd: include at %s has no schemaLocation", tr.path(tok.Local))
			}
			break
		}
		tr.schema.Includes = append(tr.schema.Includes, loc)
	case depth == 1 && tok.Local == "simpleType":
		if tr.simpleErr != nil {
			break // only the first failing simpleType counts
		}
		name, ok := tok.Attr("name")
		if !ok || name == "" {
			tr.simpleErr = fmt.Errorf("xsd: simpleType at %s has no name", tr.path(tok.Local))
			break
		}
		f.kind, f.enum = simpleTypeFrame, &EnumType{Name: name}
		tr.schema.Enums = append(tr.schema.Enums, f.enum)
	case tok.Local == "restriction" && parent.kind == simpleTypeFrame && !parent.restricted:
		parent.restricted = true
		f.kind, f.enum = restrictionFrame, parent.enum
	case tok.Local == "enumeration" && parent.kind == restrictionFrame:
		if tr.simpleErr != nil {
			break
		}
		v, ok := tok.Attr("value")
		if !ok {
			tr.simpleErr = fmt.Errorf("xsd: simpleType %q: enumeration without a value", parent.enum.Name)
			break
		}
		parent.enum.Values = append(parent.enum.Values, v)
	case tok.Local == "complexType":
		f.kind, f.at = complexTypeFrame, tr.complexTypes
		tr.complexTypes++
		name, ok := tok.Attr("name")
		if !ok || name == "" {
			tr.failComplex(&f, fmt.Errorf("xsd: complexType at %s has no name attribute", tr.path(tok.Local)))
		} else {
			f.ct = &ComplexType{Name: name}
			tr.schema.Types = append(tr.schema.Types, f.ct)
		}
		tr.openCT = append(tr.openCT, depth)
	case tok.Local == "element" && len(tr.openCT) > 0:
		tr.declare(&f, tok)
	case tok.Local == "annotation" && documented(parent.kind) && !parent.annotated:
		parent.annotated = true
		f.kind = annotationFrame
	case tok.Local == "documentation" && parent.kind == annotationFrame && !parent.annotated:
		parent.annotated = true
		f.kind = documentationFrame
	}
	tr.stack = append(tr.stack, f)
}

// declare adds the element declaration tok opens to every open complexType,
// innermost last, as a walk over each complexType's subtree would.
func (tr *translator) declare(f *frame, tok *dom.Token) {
	for _, i := range tr.openCT {
		c := &tr.stack[i]
		if c.err != nil {
			continue
		}
		if f.decl == nil {
			d, err := tr.parseElement(c.ct.Name, tok)
			if err != nil {
				tr.failComplex(c, err)
				continue
			}
			f.kind, f.decl = elementFrame, d
		}
		c.ct.Elements = append(c.ct.Elements, f.decl)
	}
}

func documented(k frameKind) bool {
	return k == simpleTypeFrame || k == complexTypeFrame || k == elementFrame
}

// failComplex records a complexType's first error.
func (tr *translator) failComplex(c *frame, err error) {
	c.err = err
	if tr.complexErr == nil || c.at < tr.complexErrAt {
		tr.complexErr, tr.complexErrAt = err, c.at
	}
}

func (tr *translator) end() {
	n := len(tr.stack) - 1
	f := &tr.stack[n]
	switch f.kind {
	case simpleTypeFrame:
		switch {
		case tr.simpleErr != nil:
		case !f.restricted:
			tr.simpleErr = fmt.Errorf("xsd: simpleType %q: only restriction-based enumerations are supported", f.enum.Name)
		case len(f.enum.Values) == 0:
			tr.simpleErr = fmt.Errorf("xsd: simpleType %q: no enumeration values", f.enum.Name)
		}
	case complexTypeFrame:
		tr.openCT = tr.openCT[:len(tr.openCT)-1]
		if f.err == nil {
			if len(f.ct.Elements) == 0 {
				tr.failComplex(f, fmt.Errorf("xsd: complexType %q declares no elements", f.ct.Name))
			} else {
				synthesizeDimensions(f.ct)
			}
		}
	case documentationFrame:
		doc := strings.TrimSpace(f.text)
		switch owner := &tr.stack[n-2]; owner.kind {
		case simpleTypeFrame:
			owner.enum.Doc = doc
		case complexTypeFrame:
			if owner.ct != nil {
				owner.ct.Doc = doc
			}
		case elementFrame:
			owner.decl.Doc = doc
		}
	}
	tr.stack = tr.stack[:n]
}

// path is the slash-separated local-name path to a child of the innermost
// open element, for diagnostics.
func (tr *translator) path(local string) string {
	var b strings.Builder
	for _, f := range tr.stack {
		b.WriteString(f.local)
		b.WriteByte('/')
	}
	b.WriteString(local)
	return b.String()
}

func (tr *translator) parseElement(typeName string, tok *dom.Token) (*ElementDecl, error) {
	d := &ElementDecl{}
	var ok bool
	if d.Name, ok = tok.Attr("name"); !ok || d.Name == "" {
		return nil, fmt.Errorf("xsd: complexType %q: element at %s has no name", typeName, tr.path(tok.Local))
	}
	if d.TypeName, ok = tok.Attr("type"); !ok || d.TypeName == "" {
		return nil, fmt.Errorf("xsd: complexType %q: element %q has no type", typeName, d.Name)
	}
	local := d.TypeName
	if i := strings.LastIndexByte(local, ':'); i >= 0 {
		local = local[i+1:]
	}
	if IsBuiltin(local) {
		d.Builtin = local
	} else {
		d.Ref = local
	}

	if mo, ok := tok.Attr("minOccurs"); ok {
		n, err := strconv.Atoi(mo)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("xsd: complexType %q: element %q: bad minOccurs %q", typeName, d.Name, mo)
		}
		d.MinOccurs = n
	} else {
		d.MinOccurs = 1
	}

	dimName, _ := tok.Attr("dimensionName")
	if placement, ok := tok.Attr("dimensionPlacement"); ok && placement != "before" {
		return nil, fmt.Errorf("xsd: complexType %q: element %q: unsupported dimensionPlacement %q (only \"before\")",
			typeName, d.Name, placement)
	}

	mo, hasMax := tok.Attr("maxOccurs")
	switch {
	case !hasMax || mo == "1":
		d.Occurs = OccursOne
		if dimName != "" {
			return nil, fmt.Errorf("xsd: complexType %q: element %q: dimensionName on a scalar element",
				typeName, d.Name)
		}
	case mo == "*" || mo == "unbounded":
		d.Occurs = OccursDynamic
		if dimName == "" {
			return nil, fmt.Errorf("xsd: complexType %q: element %q: maxOccurs=%q requires dimensionName",
				typeName, d.Name, mo)
		}
		d.DimField = dimName
	default:
		if n, err := strconv.Atoi(mo); err == nil {
			if n < 1 {
				return nil, fmt.Errorf("xsd: complexType %q: element %q: maxOccurs %d out of range",
					typeName, d.Name, n)
			}
			d.Occurs = OccursStatic
			d.StaticDim = n
		} else {
			// maxOccurs names the sizing element directly.
			d.Occurs = OccursDynamic
			d.DimField = mo
		}
		if dimName != "" && dimName != d.DimField {
			return nil, fmt.Errorf("xsd: complexType %q: element %q: conflicting dimensions %q and %q",
				typeName, d.Name, mo, dimName)
		}
	}
	return d, nil
}

// synthesizeDimensions inserts implicit integer length elements for dynamic
// arrays whose dimensionName references no declared element, immediately
// before the array (the paper's dimensionPlacement="before" convention,
// which is how SimpleData's "size" member arises from a two-element
// schema).  A type that needs none keeps its element slice.
func synthesizeDimensions(ct *ComplexType) {
	var out []*ElementDecl // nil until the first synthesized element
	for i, el := range ct.Elements {
		if el.Occurs == OccursDynamic && !declares(ct.Elements, el.DimField) && !declares(out, el.DimField) {
			if out == nil {
				out = append(make([]*ElementDecl, 0, len(ct.Elements)+1), ct.Elements[:i]...)
			}
			out = append(out, &ElementDecl{
				Name:        el.DimField,
				TypeName:    "xsd:int",
				Builtin:     "int",
				Occurs:      OccursOne,
				MinOccurs:   1,
				Synthesized: true,
			})
		}
		if out != nil {
			out = append(out, el)
		}
	}
	if out != nil {
		ct.Elements = out
	}
}

func declares(els []*ElementDecl, name string) bool {
	for _, el := range els {
		if el.Name == name {
			return true
		}
	}
	return false
}
