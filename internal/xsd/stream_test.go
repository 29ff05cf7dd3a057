package xsd

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// streamCorpus holds documents that stress what the token-driven translator
// must get right without a tree: nesting, documentation placement, and
// which of several errors a document reports.
var streamCorpus = []string{
	// A complexType nested in an element: the outer type declares the inner
	// type's elements too, and both are types.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="Outer">
	    <xsd:element name="id" type="xsd:int"/>
	    <xsd:element name="inner" type="Inner">
	      <xsd:complexType name="Inner"><xsd:element name="x" type="xsd:double"/></xsd:complexType>
	    </xsd:element>
	  </xsd:complexType>
	</xsd:schema>`,
	// The nested element's own documentation, after a nested element.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="T">
	    <xsd:element name="a" type="xsd:int">
	      <xsd:element name="b" type="xsd:int"/>
	      <xsd:annotation><xsd:documentation>doc of a</xsd:documentation></xsd:annotation>
	    </xsd:element>
	  </xsd:complexType>
	</xsd:schema>`,
	// Only the first annotation counts, and only its first documentation;
	// documentation text skips its children's text and keeps entities and
	// CDATA.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="T">
	    <xsd:annotation><xsd:appinfo>none</xsd:appinfo></xsd:annotation>
	    <xsd:annotation><xsd:documentation>ignored</xsd:documentation></xsd:annotation>
	    <xsd:element name="v" type="xsd:int">
	      <xsd:annotation>
	        <xsd:documentation> a &amp; <b>skipped</b> <![CDATA[<c>]]> </xsd:documentation>
	        <xsd:documentation>second</xsd:documentation>
	      </xsd:annotation>
	    </xsd:element>
	  </xsd:complexType>
	  <xsd:simpleType name="E">
	    <xsd:restriction base="xsd:string"><xsd:enumeration value="a"/></xsd:restriction>
	    <xsd:restriction base="xsd:string"><xsd:enumeration value="ignored"/></xsd:restriction>
	    <xsd:annotation><xsd:documentation>after the restriction</xsd:documentation></xsd:annotation>
	  </xsd:simpleType>
	</xsd:schema>`,
	// An element inside documentation still declares; include and
	// simpleType below the root do not count.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="T">
	    <xsd:annotation><xsd:documentation>d<xsd:element name="hidden" type="xsd:int"/></xsd:documentation></xsd:annotation>
	    <xsd:include/>
	    <xsd:simpleType/>
	  </xsd:complexType>
	</xsd:schema>`,
	// A complexType inside a root simpleType counts.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:simpleType name="E">
	    <xsd:restriction><xsd:enumeration value="a"/></xsd:restriction>
	    <xsd:complexType name="T"><xsd:element name="v" type="xsd:int"/></xsd:complexType>
	  </xsd:simpleType>
	</xsd:schema>`,
	// Error precedence: an include error after a complexType error wins.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="T"/>
	  <xsd:include/>
	</xsd:schema>`,
	// A simpleType error after a complexType error wins.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType/>
	  <xsd:simpleType name="E"><xsd:restriction/></xsd:simpleType>
	</xsd:schema>`,
	// The first failing simpleType reports, whichever way it fails.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:simpleType name="A"><xsd:annotation/></xsd:simpleType>
	  <xsd:simpleType/>
	</xsd:schema>`,
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:simpleType name="A"><xsd:restriction><xsd:enumeration/><xsd:enumeration value="x"/></xsd:restriction></xsd:simpleType>
	  <xsd:simpleType/>
	</xsd:schema>`,
	// The outer type reports first: its nested element's error names it.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="Outer">
	    <xsd:element name="e" type="Inner">
	      <xsd:complexType name="Inner"><xsd:element name="bad"/><xsd:element type="xsd:int"/></xsd:complexType>
	    </xsd:element>
	  </xsd:complexType>
	</xsd:schema>`,
	// An unnamed outer type reports before its inner type's error.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType>
	    <xsd:element name="e" type="Inner">
	      <xsd:complexType name="Inner"><xsd:element name="bad" type="xsd:int" maxOccurs="0"/></xsd:complexType>
	    </xsd:element>
	  </xsd:complexType>
	</xsd:schema>`,
	// An empty inner type fails though its outer type is fine.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="Outer">
	    <xsd:element name="a" type="xsd:int"/>
	    <xsd:sequence><xsd:complexType name="Inner"/></xsd:sequence>
	  </xsd:complexType>
	</xsd:schema>`,
	// An empty outer type's error comes after an earlier type's.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="A"><xsd:element name="v" type="xsd:int" minOccurs="-1"/></xsd:complexType>
	  <xsd:complexType name="B"/>
	</xsd:schema>`,
	// A syntax error after a semantic one wins; so does the root check.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"><xsd:complexType/><x></y></xsd:schema>`,
	`<notschema><xsd:complexType xmlns:xsd="urn:x"/></notschema>`,
	`<notschema><a></b></notschema>`,
	// Shared and synthesized dimensions.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="T">
	    <xsd:element name="a" type="xsd:float" maxOccurs="*" dimensionName="n"/>
	    <xsd:element name="b" type="xsd:float" maxOccurs="unbounded" dimensionName="n"/>
	    <xsd:element name="m" type="xsd:short"/>
	    <xsd:element name="c" type="xsd:float" maxOccurs="m"/>
	  </xsd:complexType>
	</xsd:schema>`,
	// Validate runs last, over the translated schema.
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:simpleType name="T"><xsd:restriction><xsd:enumeration value="a"/></xsd:restriction></xsd:simpleType>
	  <xsd:complexType name="T"><xsd:element name="v" type="xsd:int"/></xsd:complexType>
	</xsd:schema>`,
	`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"><xsd:include schemaLocation="a.xsd"/></xsd:schema>`,
	`<schema/>`,
	``,
}

// schemaSeeds lists the documents above and the paper's; FuzzSchema's
// testdata corpus adds this package's error cases, the toolkit's test
// documents and schemas rendered from conform's generated formats.
func schemaSeeds() []string {
	return append([]string{asdOffSchema, simpleDataSchema, joinRequestSchema, benchmarkShapedSchema(1)}, streamCorpus...)
}

// checkAgainstTree fails t unless ParseBytes and the tree oracle agree on
// data: the same schema, or the same error text.
func checkAgainstTree(t *testing.T, data []byte) {
	t.Helper()
	got, err := ParseBytes(data)
	want, wantErr := parseTree(data)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("stream err = %v, tree err = %v\n%s", err, wantErr, data)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("stream err = %q\n  tree err = %q\n%s", err, wantErr, data)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("schemas differ\nstream: %s\n  tree: %s\n%s", dumpSchema(got), dumpSchema(want), data)
	}
}

func dumpSchema(s *Schema) string {
	var b strings.Builder
	fmt.Fprintf(&b, "includes %q\n", s.Includes)
	for _, e := range s.Enums {
		fmt.Fprintf(&b, "enum %+v\n", *e)
	}
	for _, ct := range s.Types {
		fmt.Fprintf(&b, "type %s doc %q\n", ct.Name, ct.Doc)
		for _, el := range ct.Elements {
			fmt.Fprintf(&b, "  %+v\n", *el)
		}
	}
	return b.String()
}

func TestParseMatchesTreeOracle(t *testing.T) {
	for _, doc := range schemaSeeds() {
		checkAgainstTree(t, []byte(doc))
	}
}

// TestStreamDocs pins a few of the corpus results outright, so that the
// oracle agreeing with itself cannot hide a shared mistake.
func TestStreamDocs(t *testing.T) {
	s, err := ParseString(streamCorpus[0])
	if err != nil {
		t.Fatal(err)
	}
	if names := []string{s.Types[0].Name, s.Types[1].Name}; names[0] != "Outer" || names[1] != "Inner" {
		t.Errorf("types = %v", names)
	}
	if n := len(s.TypeByName("Outer").Elements); n != 3 {
		t.Errorf("Outer declares %d elements, want 3 (its own two and Inner's x)", n)
	}
	s, err = ParseString(streamCorpus[2])
	if err != nil {
		t.Fatal(err)
	}
	if doc := s.Types[0].Elements[0].Doc; doc != "a &  <c>" {
		t.Errorf("element doc = %q", doc)
	}
	if s.Types[0].Doc != "" {
		t.Errorf("type doc = %q, want none (the first annotation has no documentation)", s.Types[0].Doc)
	}
	if e := s.Enums[0]; e.Doc != "after the restriction" || len(e.Values) != 1 {
		t.Errorf("enum = %+v", *e)
	}
	for i, want := range map[int]string{
		5:  "include at schema/include has no schemaLocation",
		6:  `simpleType "E": no enumeration values`,
		7:  `simpleType "A": only restriction-based`,
		9:  `complexType "Outer": element "bad" has no type`,
		10: "complexType at schema/complexType has no name attribute",
		11: `complexType "Inner" declares no elements`,
		13: "dom: offset",
	} {
		if _, err := ParseString(streamCorpus[i]); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("doc %d: err = %v, want %q", i, err, want)
		}
	}
}

// FuzzSchema: arbitrary bytes through ParseBytes never panic, and the
// result equals the tree oracle's — the same Schema, or the same error
// text.
func FuzzSchema(f *testing.F) {
	for _, doc := range schemaSeeds() {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstTree(t, data)
	})
}

// benchmarkShapedSchema renders a document the shape of the repository
// benchmark's discovered schema: twelve seed-named types of seven scalar
// elements each, then the event type with a dynamic array.
func benchmarkShapedSchema(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	ident := func() string {
		b := make([]byte, 8)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	scalars := []string{"xsd:int", "xsd:long", "xsd:double", "xsd:float", "xsd:unsignedInt", "xsd:string", "xsd:short"}
	var sb strings.Builder
	sb.WriteString("<?xml version=\"1.0\"?>\n<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n")
	for t := 0; t < 12; t++ {
		fmt.Fprintf(&sb, "  <xsd:complexType name=\"T%s\">\n", ident())
		for used := map[string]bool{}; len(used) < 7; {
			name := ident()
			if !used[name] {
				used[name] = true
				fmt.Fprintf(&sb, "    <xsd:element name=\"%s\" type=\"%s\" />\n", name, scalars[rng.Intn(len(scalars))])
			}
		}
		sb.WriteString("  </xsd:complexType>\n")
	}
	sb.WriteString(`  <xsd:complexType name="Sample">
    <xsd:element name="seq" type="xsd:long" />
    <xsd:element name="sum" type="xsd:unsignedLong" />
    <xsd:element name="count" type="xsd:int" />
    <xsd:element name="values" type="xsd:float" minOccurs="0" maxOccurs="*"
        dimensionPlacement="before" dimensionName="count" />
  </xsd:complexType>
</xsd:schema>
`)
	return sb.String()
}

// TestSchemaParseAllocs: translating the benchmark-shaped document straight
// off the tokens stays within a fixed allocation budget.  Building and then
// walking an element tree took 1 236.
func TestSchemaParseAllocs(t *testing.T) {
	data := []byte(benchmarkShapedSchema(20010807))
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ParseBytes(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per parse of a %d-byte schema", allocs, len(data))
	if allocs > 300 {
		t.Errorf("ParseBytes made %.0f allocations, want <= 300", allocs)
	}
}

func BenchmarkParseSchema(b *testing.B) {
	data := []byte(benchmarkShapedSchema(20010807))
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseBytes(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parseTree(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
