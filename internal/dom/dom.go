// Package dom reads XML documents: a pull tokenizer (Tokenizer), an element
// tree built from its tokens (ParseBytes, ParseString), traversal,
// and serialisation back to XML.
//
// The original XMIT parsed each schema into a Xerces-C DOM tree and then
// pulled type definitions out of it by selective traversal.  Here the
// schema translator (internal/xsd) reads the tokenizer directly and builds
// no tree; the tree serves the callers that want one (XML messages, the
// lineage and mesh documents).  Strings in tokens and trees
// are substrings of one copy of the document, so a caller that keeps a
// short value from a large document should clone it.  ParseStd, built on
// encoding/xml, is the reference the tokenizer is tested against.
package dom

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Attr is one attribute of an element.
type Attr struct {
	// Space is the resolved namespace URI (empty for unqualified
	// attributes), Local the local name.
	Space, Local string
	Value        string
}

// Element is a node of the document tree.
type Element struct {
	// Space is the resolved namespace URI, Local the local tag name.
	Space, Local string
	// Attrs holds the attributes in document order.
	Attrs []Attr
	// Children holds child elements in document order.
	Children []*Element
	// Text is the concatenated character data directly inside this
	// element (excluding descendants), trimmed of surrounding space.
	Text string
	// Parent is the enclosing element, nil at the root.
	Parent *Element
}

// Document is a parsed XML document.
type Document struct {
	Root *Element
}

const maxDepth = 128

// ParseStd reads an XML document into a tree using the standard library's
// encoding/xml tokenizer.  It accepts the same documents as Parse (the
// tokenizer in scan.go) and exists as the reference implementation for
// differential tests and for the parser ablation benchmark.
func ParseStd(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	var root *Element
	var cur *Element
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dom: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			if depth > maxDepth {
				return nil, fmt.Errorf("dom: document nested deeper than %d elements", maxDepth)
			}
			el := &Element{Space: t.Name.Space, Local: t.Name.Local, Parent: cur}
			for _, a := range t.Attr {
				// Drop namespace declarations; prefixes are already resolved.
				if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
					continue
				}
				el.Attrs = append(el.Attrs, Attr{Space: a.Name.Space, Local: a.Name.Local, Value: a.Value})
			}
			if cur == nil {
				if root != nil {
					return nil, fmt.Errorf("dom: multiple root elements")
				}
				root = el
			} else {
				cur.Children = append(cur.Children, el)
			}
			cur = el
		case xml.EndElement:
			depth--
			if cur == nil {
				return nil, fmt.Errorf("dom: unbalanced end element %s", t.Name.Local)
			}
			cur.Text = strings.TrimSpace(cur.Text)
			cur = cur.Parent
		case xml.CharData:
			if cur != nil {
				cur.Text += string(t)
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("dom: document has no root element")
	}
	if cur != nil {
		return nil, fmt.Errorf("dom: unterminated element %s", cur.Local)
	}
	return &Document{Root: root}, nil
}

// ParseStdString parses a document held in a string with ParseStd.
func ParseStdString(s string) (*Document, error) {
	return ParseStd(strings.NewReader(s))
}

// Attr returns the value of the named attribute (matching the local name;
// any namespace) and whether it is present.
func (e *Element) Attr(local string) (string, bool) {
	return attrValue(e.Attrs, local)
}

func attrValue(attrs []Attr, local string) (string, bool) {
	for i := range attrs {
		if attrs[i].Local == local {
			return attrs[i].Value, true
		}
	}
	return "", false
}

// AttrDefault returns the named attribute or a default.
func (e *Element) AttrDefault(local, def string) string {
	if v, ok := e.Attr(local); ok {
		return v
	}
	return def
}

// ChildrenByName returns the direct children with the given local name.
func (e *Element) ChildrenByName(local string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if c.Local == local {
			out = append(out, c)
		}
	}
	return out
}

// FirstChild returns the first direct child with the given local name, or
// nil.
func (e *Element) FirstChild(local string) *Element {
	for _, c := range e.Children {
		if c.Local == local {
			return c
		}
	}
	return nil
}

// Descendants returns every element in the subtree (including e itself)
// with the given local name, in document order.
func (e *Element) Descendants(local string) []*Element {
	var out []*Element
	e.Walk(func(el *Element) bool {
		if el.Local == local {
			out = append(out, el)
		}
		return true
	})
	return out
}

// Walk visits the subtree rooted at e in document order.  Returning false
// from fn prunes the walk below that element.
func (e *Element) Walk(fn func(*Element) bool) {
	if !fn(e) {
		return
	}
	for _, c := range e.Children {
		c.Walk(fn)
	}
}

// Path returns the slash-separated local-name path from the root to e,
// for diagnostics.
func (e *Element) Path() string {
	if e.Parent == nil {
		return e.Local
	}
	return e.Parent.Path() + "/" + e.Local
}

// WriteXML serialises the subtree to the writer as indented XML.  Namespace
// URIs are re-bound to generated prefixes so the output is self-contained.
func (d *Document) WriteXML(w io.Writer) error {
	// Collect namespace URIs used in the tree.
	uris := map[string]string{}
	d.Root.Walk(func(e *Element) bool {
		if e.Space != "" {
			uris[e.Space] = ""
		}
		for _, a := range e.Attrs {
			if a.Space != "" {
				uris[a.Space] = ""
			}
		}
		return true
	})
	ordered := make([]string, 0, len(uris))
	for u := range uris {
		ordered = append(ordered, u)
	}
	sort.Strings(ordered)
	for i, u := range ordered {
		uris[u] = fmt.Sprintf("ns%d", i)
	}
	// Conventional prefix for XML Schema keeps output readable.
	if _, ok := uris[XSDNamespace]; ok {
		uris[XSDNamespace] = "xsd"
	}
	p := &printer{w: w, prefixes: uris}
	p.element(d.Root, 0, true)
	return p.err
}

// XSDNamespace is the XML Schema namespace URI.
const XSDNamespace = "http://www.w3.org/2001/XMLSchema"

type printer struct {
	w        io.Writer
	prefixes map[string]string
	err      error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func (p *printer) name(space, local string) string {
	if space == "" {
		return local
	}
	return p.prefixes[space] + ":" + local
}

func (p *printer) element(e *Element, indent int, root bool) {
	pad := strings.Repeat("  ", indent)
	p.printf("%s<%s", pad, p.name(e.Space, e.Local))
	if root {
		for _, uri := range sortedURIs(p.prefixes) {
			p.printf(` xmlns:%s="%s"`, p.prefixes[uri], escapeAttr(uri))
		}
	}
	for _, a := range e.Attrs {
		p.printf(` %s="%s"`, p.name(a.Space, a.Local), escapeAttr(a.Value))
	}
	if len(e.Children) == 0 && e.Text == "" {
		p.printf(" />\n")
		return
	}
	p.printf(">")
	if e.Text != "" {
		p.printf("%s", escapeText(e.Text))
	}
	if len(e.Children) > 0 {
		p.printf("\n")
		for _, c := range e.Children {
			p.element(c, indent+1, false)
		}
		p.printf("%s", pad)
	}
	p.printf("</%s>\n", p.name(e.Space, e.Local))
}

func sortedURIs(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for u := range m {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

func escapeText(s string) string {
	// A literal carriage return would be read back as a newline.
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#13;")
	return r.Replace(s)
}

func escapeAttr(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&#34;", "\r", "&#13;")
	return r.Replace(s)
}
