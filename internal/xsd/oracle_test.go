package xsd

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/open-metadata/xmit/internal/dom"
)

// The tree oracle: the schema translation as it was defined before the
// translator read tokens directly — parse the whole document into a dom
// tree, then pull the definitions out by selective traversal.  ParseBytes
// must agree with it on every input: the same Schema, or the same error
// text (FuzzSchema, TestParseMatchesTreeOracle).

// parseTree is the tree path end to end.
func parseTree(data []byte) (*Schema, error) {
	doc, err := dom.ParseBytes(data)
	if err != nil {
		return nil, fmt.Errorf("xsd: %w", err)
	}
	return FromDocument(doc)
}

// FromDocument extracts a Schema from an already parsed document.
func FromDocument(doc *dom.Document) (*Schema, error) {
	root := doc.Root
	if root.Local != "schema" {
		return nil, fmt.Errorf("xsd: root element is <%s>, want <schema>", root.Local)
	}
	s := &Schema{}
	for _, inc := range root.ChildrenByName("include") {
		loc, ok := inc.Attr("schemaLocation")
		if !ok || loc == "" {
			return nil, fmt.Errorf("xsd: include at %s has no schemaLocation", inc.Path())
		}
		s.Includes = append(s.Includes, loc)
	}
	for _, stEl := range root.ChildrenByName("simpleType") {
		e, err := treeSimpleType(stEl)
		if err != nil {
			return nil, err
		}
		s.Enums = append(s.Enums, e)
	}
	for _, ctEl := range root.Descendants("complexType") {
		ct, err := treeComplexType(ctEl)
		if err != nil {
			return nil, err
		}
		s.Types = append(s.Types, ct)
	}
	if len(s.Types) == 0 && len(s.Includes) == 0 && len(s.Enums) == 0 {
		return nil, fmt.Errorf("xsd: document defines no complexType")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func treeSimpleType(stEl *dom.Element) (*EnumType, error) {
	name, ok := stEl.Attr("name")
	if !ok || name == "" {
		return nil, fmt.Errorf("xsd: simpleType at %s has no name", stEl.Path())
	}
	doc := treeDocOf(stEl)
	restr := stEl.FirstChild("restriction")
	if restr == nil {
		return nil, fmt.Errorf("xsd: simpleType %q: only restriction-based enumerations are supported", name)
	}
	e := &EnumType{Name: name, Doc: doc}
	for _, enum := range restr.ChildrenByName("enumeration") {
		v, ok := enum.Attr("value")
		if !ok {
			return nil, fmt.Errorf("xsd: simpleType %q: enumeration without a value", name)
		}
		e.Values = append(e.Values, v)
	}
	if len(e.Values) == 0 {
		return nil, fmt.Errorf("xsd: simpleType %q: no enumeration values", name)
	}
	return e, nil
}

func treeComplexType(ctEl *dom.Element) (*ComplexType, error) {
	name, ok := ctEl.Attr("name")
	if !ok || name == "" {
		return nil, fmt.Errorf("xsd: complexType at %s has no name attribute", ctEl.Path())
	}
	ct := &ComplexType{Name: name, Doc: treeDocOf(ctEl)}
	for _, el := range ctEl.Descendants("element") {
		decl, err := treeElement(ct.Name, el)
		if err != nil {
			return nil, err
		}
		ct.Elements = append(ct.Elements, decl)
	}
	if len(ct.Elements) == 0 {
		return nil, fmt.Errorf("xsd: complexType %q declares no elements", name)
	}
	treeSynthesizeDimensions(ct)
	return ct, nil
}

func treeElement(typeName string, el *dom.Element) (*ElementDecl, error) {
	d := &ElementDecl{Doc: treeDocOf(el)}
	var ok bool
	if d.Name, ok = el.Attr("name"); !ok || d.Name == "" {
		return nil, fmt.Errorf("xsd: complexType %q: element at %s has no name", typeName, el.Path())
	}
	if d.TypeName, ok = el.Attr("type"); !ok || d.TypeName == "" {
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

	if mo, ok := el.Attr("minOccurs"); ok {
		n, err := strconv.Atoi(mo)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("xsd: complexType %q: element %q: bad minOccurs %q", typeName, d.Name, mo)
		}
		d.MinOccurs = n
	} else {
		d.MinOccurs = 1
	}

	dimName, _ := el.Attr("dimensionName")
	placement := el.AttrDefault("dimensionPlacement", "before")
	if placement != "before" {
		return nil, fmt.Errorf("xsd: complexType %q: element %q: unsupported dimensionPlacement %q (only \"before\")",
			typeName, d.Name, placement)
	}

	mo, hasMax := el.Attr("maxOccurs")
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

func treeDocOf(el *dom.Element) string {
	if ann := el.FirstChild("annotation"); ann != nil {
		if doc := ann.FirstChild("documentation"); doc != nil {
			return doc.Text
		}
	}
	return ""
}

func treeSynthesizeDimensions(ct *ComplexType) {
	declared := map[string]bool{}
	for _, el := range ct.Elements {
		declared[el.Name] = true
	}
	var out []*ElementDecl
	for _, el := range ct.Elements {
		if el.Occurs == OccursDynamic && !declared[el.DimField] {
			out = append(out, &ElementDecl{
				Name:        el.DimField,
				TypeName:    "xsd:int",
				Builtin:     "int",
				Occurs:      OccursOne,
				MinOccurs:   1,
				Synthesized: true,
			})
			declared[el.DimField] = true
		}
		out = append(out, el)
	}
	ct.Elements = out
}
