package dom

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

// corpus of documents both parsers must handle identically.
var corpus = []string{
	sampleSchema,
	`<a/>`,
	`<a b="1" c="2">text</a>`,
	`<a><b><c>deep</c></b><d/></a>`,
	`<?xml version="1.0" encoding="UTF-8"?><root><!-- comment --><x v="q"/></root>`,
	`<a>one <b>two</b> three</a>`,
	`<ns:a xmlns:ns="urn:x"><ns:b ns:attr="v"/></ns:a>`,
	`<a xmlns="urn:default"><b/><c xmlns="urn:other"><d/></c><e/></a>`,
	`<a v="x&amp;y&lt;&gt;&quot;&apos;">t&amp;t &#65;&#x42;</a>`,
	`<a><![CDATA[raw <stuff> &amp; here]]></a>`,
	`<!DOCTYPE a><a>x</a>`,
	`<a
	   b = "spaced"
	   c="tabs"	>v</a>`,
	`<a><?pi target?><b/></a>`,
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	   <xsd:complexType name="T"><xsd:element name="x" type="xsd:int"/></xsd:complexType>
	 </xsd:schema>`,
}

// TestDifferentialAgainstStd: the fast scanner and the encoding/xml parser
// produce identical trees on the corpus.
func TestDifferentialAgainstStd(t *testing.T) {
	for i, doc := range corpus {
		fast, errFast := ParseString(doc)
		std, errStd := ParseStdString(doc)
		if (errFast == nil) != (errStd == nil) {
			t.Errorf("doc %d: fast err=%v, std err=%v", i, errFast, errStd)
			continue
		}
		if errFast != nil {
			continue
		}
		if !equalTrees(fast.Root, std.Root) {
			t.Errorf("doc %d: trees differ\nfast: %+v\nstd:  %+v\n%s", i, fast.Root, std.Root, doc)
		}
	}
}

// TestDifferentialMalformed: both parsers must reject clearly malformed
// documents (they may disagree on exotic edge cases, so only unambiguous
// breakage is asserted).
func TestDifferentialMalformed(t *testing.T) {
	bad := []string{
		``,
		`<a>`,
		`<a></b>`,
		`<a/><b/>`,
		`<a b></a>`,
		`<a b=></a>`,
		`<a b=unquoted></a>`,
		`<a b="x</a>`,
		`just text`,
		`<a><!-- unterminated</a>`,
		`<a><![CDATA[open</a>`,
	}
	for _, doc := range bad {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("fast parser accepted %q", doc)
		}
		if _, err := ParseStdString(doc); err == nil {
			t.Errorf("std parser accepted %q", doc)
		}
	}
}

func TestScannerNamespaceScoping(t *testing.T) {
	doc, err := ParseString(`<a xmlns:p="urn:1"><p:b/><c xmlns:p="urn:2"><p:d/></c><p:e/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	b := doc.Root.Children[0]
	d := doc.Root.Children[1].Children[0]
	e := doc.Root.Children[2]
	if b.Space != "urn:1" || d.Space != "urn:2" || e.Space != "urn:1" {
		t.Errorf("spaces = %q %q %q", b.Space, d.Space, e.Space)
	}
}

func TestScannerDefaultNamespaceNotForAttrs(t *testing.T) {
	doc, err := ParseString(`<a xmlns="urn:d" k="v"/>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Space != "urn:d" {
		t.Errorf("element space = %q", doc.Root.Space)
	}
	if doc.Root.Attrs[0].Space != "" {
		t.Errorf("unprefixed attribute must have no namespace, got %q", doc.Root.Attrs[0].Space)
	}
}

func TestScannerUndeclaredPrefix(t *testing.T) {
	if _, err := ParseString(`<p:a/>`); err == nil {
		t.Error("undeclared element prefix should fail")
	}
	if _, err := ParseString(`<a p:k="v"/>`); err == nil {
		t.Error("undeclared attribute prefix should fail")
	}
	doc, err := ParseString(`<a xml:lang="en"/>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Attrs[0].Space != "http://www.w3.org/XML/1998/namespace" {
		t.Errorf("xml: prefix not implicitly bound: %q", doc.Root.Attrs[0].Space)
	}
}

func TestScannerEntities(t *testing.T) {
	doc, err := ParseString(`<a>&#x1F600; &amp; &#97;</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Text != "\U0001F600 & a" {
		t.Errorf("text = %q", doc.Root.Text)
	}
	for _, bad := range []string{`<a>&unknown;</a>`, `<a>&#;</a>`, `<a>&#x;</a>`, `<a>&#xZZ;</a>`} {
		d, err := ParseString(bad)
		// Unknown entities pass through as literal text in the fast
		// parser (lenient); they must never panic or corrupt the tree.
		if err == nil && d.Root == nil {
			t.Errorf("%q: nil root", bad)
		}
	}
}

func TestScannerCDATAAndComments(t *testing.T) {
	doc, err := ParseString(`<a>pre<!-- gone --><![CDATA[<raw&>]]>post</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Text != "pre<raw&>post" {
		t.Errorf("text = %q", doc.Root.Text)
	}
}

func TestScannerDoctypeWithSubset(t *testing.T) {
	doc, err := ParseString(`<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>x</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Text != "x" {
		t.Errorf("text = %q", doc.Root.Text)
	}
}

func TestScannerDepthLimit(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString("<a>")
	}
	for i := 0; i < 200; i++ {
		sb.WriteString("</a>")
	}
	if _, err := ParseString(sb.String()); err == nil {
		t.Error("deeply nested document should be rejected")
	}
}

func TestScannerMismatchedTags(t *testing.T) {
	if _, err := ParseString(`<a><b></a></b>`); err == nil {
		t.Error("mismatched nesting should fail")
	}
	// Prefixed end tags match on local name.
	if _, err := ParseString(`<p:a xmlns:p="u"><p:b></p:b></p:a>`); err != nil {
		t.Errorf("prefixed tags should match: %v", err)
	}
}

// Property: the scanner never panics on arbitrary bytes, and whenever both
// parsers accept a document they agree on the tree.
func TestQuickScannerGarbage(t *testing.T) {
	prop := func(data []byte) bool {
		fast, errFast := ParseBytes(data)
		if errFast == nil && fast.Root == nil {
			return false
		}
		std, errStd := ParseStdString(string(data))
		if errFast == nil && errStd == nil {
			return equalTrees(fast.Root, std.Root)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

// Property: serialise(parse(doc)) round-trips through BOTH parsers to the
// same tree for generated documents.
func TestQuickDifferentialGenerated(t *testing.T) {
	prop := func(names []string, values []string) bool {
		root := &Element{Local: "root"}
		cur := root
		for i, n := range names {
			el := &Element{Local: sanitizeName(n), Parent: cur}
			if i < len(values) {
				el.Attrs = append(el.Attrs, Attr{Local: "v", Value: printable(values[i])})
			}
			cur.Children = append(cur.Children, el)
			if i%2 == 0 {
				cur = el
			}
		}
		var sb strings.Builder
		if err := (&Document{Root: root}).WriteXML(&sb); err != nil {
			return false
		}
		fast, err1 := ParseString(sb.String())
		std, err2 := ParseStdString(sb.String())
		if err1 != nil || err2 != nil {
			return false
		}
		return equalTrees(fast.Root, std.Root)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkParseFast(b *testing.B) {
	data := []byte(sampleSchema)
	for i := 0; i < b.N; i++ {
		if _, err := ParseBytes(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseStd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ParseStdString(sampleSchema); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScannerLineEnds: literal "\r\n" and "\r" read as "\n" in text, CDATA
// and attribute values, as encoding/xml reads them; "&#13;" stays a
// carriage return and survives a write/parse round trip.
func TestScannerLineEnds(t *testing.T) {
	doc := "<a v=\"1\r\n2\r3\">x\r\ny\ry<![CDATA[\r\n]]>&#13;z<b/></a>"
	for name, parse := range map[string]func(string) (*Document, error){"fast": ParseString, "std": ParseStdString} {
		d, err := parse(doc)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := d.Root.Attr("v"); v != "1\n2\n3" {
			t.Errorf("%s: attr = %q", name, v)
		}
		if d.Root.Text != "x\ny\ny\n\rz" {
			t.Errorf("%s: text = %q", name, d.Root.Text)
		}
		var sb strings.Builder
		if err := d.WriteXML(&sb); err != nil {
			t.Fatal(err)
		}
		back, err := ParseString(sb.String())
		if err != nil || !equalTrees(d.Root, back.Root) {
			t.Errorf("%s: round trip: %v\n%s", name, err, sb.String())
		}
	}
}

// TestTokenizerStream: the token sequence, with a self-closing tag's
// EndElement, char data merged across a comment, and nothing outside the
// root; Next keeps returning the final io.EOF.
func TestTokenizerStream(t *testing.T) {
	tz := NewTokenizer(`<?xml version="1.0"?> <p:a xmlns:p="urn:x" k="v">one<!-- c -->two<b/></p:a> `)
	var got []string
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch tok.Kind {
		case StartElement:
			got = append(got, fmt.Sprintf("<%s %s %v>", tok.Space, tok.Local, tok.Attrs))
		case EndElement:
			got = append(got, "</"+tok.Local+">")
		case CharData:
			got = append(got, tok.Text)
		}
	}
	want := []string{"<urn:x a [{ k v}]>", "onetwo", "< b []>", "</b>", "</a>"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("tokens = %q\nwant %q", got, want)
	}
	if _, err := tz.Next(); err != io.EOF {
		t.Errorf("Next after the end = %v, want io.EOF", err)
	}
}
