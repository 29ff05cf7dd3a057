package core

import (
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/open-metadata/xmit/internal/discovery"
)

const pointSchema = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Point">
    <xsd:element name="x" type="xsd:double" />
    <xsd:element name="y" type="xsd:double" />
  </xsd:complexType>
</xsd:schema>`

// TestRefreshURLChecksConflicts: a refreshed document passes the checks a
// first load does.  It may replace its own types, but not redefine another
// document's type or give an enumeration a complexType's name.
func TestRefreshURLChecksConflicts(t *testing.T) {
	srv := discovery.NewDocServer()
	srv.Publish("point.xsd", []byte(pointSchema))
	srv.Publish("track.xsd", []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Track"><xsd:element name="n" type="xsd:int" /></xsd:complexType>
</xsd:schema>`))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	tk := NewToolkit()
	for _, doc := range []string{"/point.xsd", "/track.xsd"} {
		if _, err := tk.LoadURL(ts.URL + doc); err != nil {
			t.Fatal(err)
		}
	}
	point := tk.Type("Point")
	for name, doc := range map[string]string{
		"redefines another document's type": `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Track"><xsd:element name="n" type="xsd:int" /></xsd:complexType>
  <xsd:complexType name="Point"><xsd:element name="x" type="xsd:float" /></xsd:complexType>
</xsd:schema>`,
		"enumeration named like a complexType": `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Point">
    <xsd:restriction base="xsd:string"><xsd:enumeration value="a" /></xsd:restriction>
  </xsd:simpleType>
  <xsd:complexType name="Track"><xsd:element name="n" type="xsd:int" /></xsd:complexType>
</xsd:schema>`,
	} {
		srv.Publish("track.xsd", []byte(doc))
		changed, _, err := tk.RefreshURL(ts.URL + "/track.xsd")
		if !changed || err == nil {
			t.Errorf("%s: refresh changed=%v err=%v, want a rejection", name, changed, err)
		}
		if tk.Type("Point") != point || tk.Enum("Point") != nil {
			t.Errorf("%s: Point was replaced by the rejected refresh", name)
		}
	}

	// A refresh may still replace the document's own types.
	srv.Publish("track.xsd", []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Track"><xsd:element name="n" type="xsd:long" /></xsd:complexType>
</xsd:schema>`))
	changed, names, err := tk.RefreshURL(ts.URL + "/track.xsd")
	if err != nil || !changed || len(names) != 1 || names[0] != "Track" {
		t.Fatalf("refresh = %v %v %v", changed, names, err)
	}
	if got := tk.Type("Track").Elements[0].TypeName; got != "xsd:long" {
		t.Errorf("Track.n is %s after the refresh, want xsd:long", got)
	}
}

// TestInstallRejectsWholeDocument: a document rejected partway through
// installs none of its definitions, including the ones before the failure.
func TestInstallRejectsWholeDocument(t *testing.T) {
	tk := NewToolkit()
	if _, err := tk.LoadString(pointSchema); err != nil {
		t.Fatal(err)
	}
	srv := discovery.NewDocServer()
	srv.Publish("other.xsd", []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Phase">
    <xsd:restriction base="xsd:string"><xsd:enumeration value="solid" /></xsd:restriction>
  </xsd:simpleType>
  <xsd:complexType name="Cell"><xsd:element name="phase" type="Phase" /></xsd:complexType>
  <xsd:complexType name="Point"><xsd:element name="x" type="xsd:float" /></xsd:complexType>
</xsd:schema>`))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, err := tk.LoadURL(ts.URL + "/other.xsd")
	if err == nil || !strings.Contains(err.Error(), `type "Point"`) {
		t.Fatalf("load = %v, want the Point conflict", err)
	}
	if tk.Enum("Phase") != nil || tk.Type("Cell") != nil || len(tk.Enums()) != 0 {
		t.Errorf("rejected document left definitions behind: types %v, enums %v", tk.Types(), tk.Enums())
	}
	if got := tk.Types(); len(got) != 1 || got[0] != "Point" || tk.Source("Point") != "" {
		t.Errorf("types = %v, Point from %q; want only the inline Point", got, tk.Source("Point"))
	}
}
