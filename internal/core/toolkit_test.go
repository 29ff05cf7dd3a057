package core

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
)

const hydroSchemas = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="JoinRequest">
    <xsd:element name="name" type="xsd:string" />
    <xsd:element name="server" type="xsd:unsignedLong" />
    <xsd:element name="ip_addr" type="xsd:unsignedLong" />
    <xsd:element name="pid" type="xsd:unsignedLong" />
    <xsd:element name="ds_addr" type="xsd:unsignedLong" />
  </xsd:complexType>
  <xsd:complexType name="SimpleData">
    <xsd:element name="timestep" type="xsd:integer" />
    <xsd:element name="data" type="xsd:float" minOccurs="0" maxOccurs="*"
        dimensionPlacement="before" dimensionName="size" />
  </xsd:complexType>
</xsd:schema>`

const nestedSchema = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Point">
    <xsd:element name="x" type="xsd:double" />
    <xsd:element name="y" type="xsd:double" />
  </xsd:complexType>
  <xsd:complexType name="Track">
    <xsd:element name="id" type="xsd:int" />
    <xsd:element name="npoints" type="xsd:int" />
    <xsd:element name="points" type="Point" maxOccurs="npoints" />
  </xsd:complexType>
</xsd:schema>`

func TestLoadAndGenerate(t *testing.T) {
	tk := NewToolkit()
	names, err := tk.LoadString(hydroSchemas)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "JoinRequest" {
		t.Fatalf("loaded %v", names)
	}
	if got := tk.Types(); len(got) != 2 {
		t.Fatalf("Types = %v", got)
	}
	if tk.Type("SimpleData") == nil || tk.Type("Nope") != nil {
		t.Error("Type lookup broken")
	}

	// Paper Figure 6 structure sizes on the paper's platform (sparc32):
	// JoinRequest = 20 bytes, SimpleData = 12 bytes.
	jr, err := tk.GenerateFormat("JoinRequest", platform.Sparc32)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Size != 20 {
		t.Errorf("JoinRequest size = %d, want 20", jr.Size)
	}
	sd, err := tk.GenerateFormat("SimpleData", platform.Sparc32)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Size != 12 {
		t.Errorf("SimpleData size = %d, want 12", sd.Size)
	}
	// The synthesized "size" member must sit between timestep and data.
	if sd.Fields[1].Name != "size" || sd.Fields[2].LengthField != "size" {
		t.Errorf("SimpleData fields = %v", sd)
	}

	if _, err := tk.GenerateFormat("Missing", platform.Sparc32); err == nil {
		t.Error("unknown type should fail")
	}
}

// TestXMITMetadataEqualsNative is the core claim of the paper: the format
// XMIT generates from XML is identical to the one built from compiled-in
// field lists, so marshaling cannot tell them apart.
func TestXMITMetadataEqualsNative(t *testing.T) {
	tk := NewToolkit()
	if _, err := tk.LoadString(hydroSchemas); err != nil {
		t.Fatal(err)
	}
	for _, p := range platform.All() {
		xmitFmt, err := tk.GenerateFormat("SimpleData", p)
		if err != nil {
			t.Fatal(err)
		}
		ctx := pbio.NewContext(pbio.WithPlatform(p))
		nativeFmt, err := ctx.RegisterFields("SimpleData", []pbio.IOField{
			{Name: "timestep", Type: "integer"},
			{Name: "size", Type: "integer"},
			{Name: "data", Type: "float[size]"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if xmitFmt.ID() != nativeFmt.ID() {
			t.Errorf("%s: XMIT format %s != native %s\nxmit:   %s\nnative: %s",
				p, xmitFmt.ID(), nativeFmt.ID(), xmitFmt, nativeFmt)
		}
	}
}

func TestRegisterAndRoundTrip(t *testing.T) {
	tk := NewToolkit()
	if _, err := tk.LoadString(hydroSchemas); err != nil {
		t.Fatal(err)
	}
	ctx := pbio.NewContext(pbio.WithPlatform(platform.Sparc32))
	tok, err := tk.Register("SimpleData", ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tok.TypeName != "SimpleData" || tok.ID != tok.Format.ID() {
		t.Errorf("token = %+v", tok)
	}
	type SimpleData struct {
		Timestep int32
		Size     int32
		Data     []float32
	}
	in := SimpleData{Timestep: 7, Data: []float32{1, 2, 3, 4}}
	b, err := ctx.Bind(tok.Format, &in)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := b.Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out SimpleData
	if _, err := ctx.Decode(msg, &out); err != nil {
		t.Fatal(err)
	}
	if out.Timestep != 7 || out.Size != 4 || out.Data[3] != 4 {
		t.Errorf("decoded %+v", out)
	}

	toks, err := tk.RegisterAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 {
		t.Errorf("RegisterAll = %d tokens", len(toks))
	}
}

func TestNestedDynamicStructs(t *testing.T) {
	tk := NewToolkit()
	if _, err := tk.LoadString(nestedSchema); err != nil {
		t.Fatal(err)
	}
	ctx := pbio.NewContext(pbio.WithPlatform(platform.X8664))
	tok, err := tk.Register("Track", ctx)
	if err != nil {
		t.Fatal(err)
	}
	type Point struct{ X, Y float64 }
	type Track struct {
		Id      int32
		Npoints int32
		Points  []Point
	}
	in := Track{Id: 5, Points: []Point{{1, 2}, {3, 4}}}
	b, err := ctx.Bind(tok.Format, &in)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := b.Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out Track
	if _, err := ctx.Decode(msg, &out); err != nil {
		t.Fatal(err)
	}
	if out.Npoints != 2 || out.Points[1].Y != 4 {
		t.Errorf("decoded %+v", out)
	}
}

func TestRecursiveTypeRejected(t *testing.T) {
	tk := NewToolkit()
	_, err := tk.LoadString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="Node">
	    <xsd:element name="next" type="Node" />
	  </xsd:complexType>
	</xsd:schema>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.GenerateFormat("Node", platform.X8664); err == nil {
		t.Error("recursive type should fail to generate")
	}
}

func TestUnresolvedReference(t *testing.T) {
	tk := NewToolkit()
	_, err := tk.LoadString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="Uses">
	    <xsd:element name="m" type="MissingType" />
	  </xsd:complexType>
	</xsd:schema>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.GenerateFormat("Uses", platform.X8664); err == nil {
		t.Error("unresolved reference should fail at generation time")
	}
}

func TestHTTPDiscoveryAndRefresh(t *testing.T) {
	srv := discovery.NewDocServer()
	srv.Publish("hydro.xsd", []byte(hydroSchemas))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	tk := NewToolkit()
	url := ts.URL + "/hydro.xsd"
	names, err := tk.LoadURL(url)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("loaded %v", names)
	}
	if tk.Source("SimpleData") != url {
		t.Errorf("Source = %q", tk.Source("SimpleData"))
	}

	// Unchanged refresh is a no-op.
	changed, _, err := tk.RefreshURL(url)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("refresh of unchanged document reported change")
	}

	// Central evolution: SimpleData gains a field; components that
	// refresh see the new layout without recompiling.
	evolved := strings.Replace(hydroSchemas,
		`<xsd:element name="timestep" type="xsd:integer" />`,
		`<xsd:element name="timestep" type="xsd:integer" /><xsd:element name="quality" type="xsd:float" />`,
		1)
	srv.Publish("hydro.xsd", []byte(evolved))
	changed, names, err = tk.RefreshURL(url)
	if err != nil {
		t.Fatal(err)
	}
	if !changed || len(names) != 2 {
		t.Fatalf("refresh: changed=%v names=%v", changed, names)
	}
	f, err := tk.GenerateFormat("SimpleData", platform.Sparc32)
	if err != nil {
		t.Fatal(err)
	}
	if f.FieldByName("quality") < 0 {
		t.Errorf("evolved field missing: %s", f)
	}
}

// TestWithRepositoryShared: WithRepository substitutes the toolkit's
// document repository, so toolkits handed one repository share its cache
// and the origin serves the document once.  A toolkit with its own
// repository fetches again.
func TestWithRepositoryShared(t *testing.T) {
	docs := discovery.NewDocServer()
	docs.Publish("hydro.xsd", []byte(hydroSchemas))
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		docs.ServeHTTP(w, r)
	}))
	defer ts.Close()
	url := ts.URL + "/hydro.xsd"

	repo := discovery.NewRepository(discovery.WithMetricsRegistry(obs.NewRegistry()))
	for i := 0; i < 2; i++ {
		tk := NewToolkit(WithRepository(repo), WithMetrics(obs.NewRegistry()))
		if names, err := tk.LoadURL(url); err != nil || len(names) != 2 {
			t.Fatalf("toolkit %d loaded %v, %v", i, names, err)
		}
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("two toolkits on one repository fetched %d times, want 1", n)
	}
	if _, err := NewToolkit(WithMetrics(obs.NewRegistry())).LoadURL(url); err != nil {
		t.Fatal(err)
	}
	if n := hits.Load(); n != 2 {
		t.Errorf("a toolkit with its own repository left the fetch count at %d, want 2", n)
	}
}

func TestConflictingDefinitions(t *testing.T) {
	tk := NewToolkit()
	if _, err := tk.LoadString(hydroSchemas); err != nil {
		t.Fatal(err)
	}
	conflicting := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="SimpleData">
	    <xsd:element name="other" type="xsd:int" />
	  </xsd:complexType>
	</xsd:schema>`
	srv := discovery.NewDocServer()
	srv.Publish("conflict.xsd", []byte(conflicting))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, err := tk.LoadURL(ts.URL + "/conflict.xsd"); err == nil {
		t.Error("conflicting redefinition from another source should fail")
	}
	// Identical redefinition from another source is tolerated.
	srv.Publish("dup.xsd", []byte(hydroSchemas))
	if _, err := tk.LoadURL(ts.URL + "/dup.xsd"); err != nil {
		t.Errorf("identical redefinition should load: %v", err)
	}
}

func TestNewRecordFromSchema(t *testing.T) {
	tk := NewToolkit()
	if _, err := tk.LoadString(hydroSchemas); err != nil {
		t.Fatal(err)
	}
	r, err := tk.NewRecord("SimpleData", platform.Sparc32)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Set("timestep", 3); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("data", []float32{9, 8}); err != nil {
		t.Fatal(err)
	}
	ctx := pbio.NewContext(pbio.WithPlatform(platform.Sparc32))
	msg, err := ctx.EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ctx.DecodeRecord(msg)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.Get("size"); v.(int64) != 2 {
		t.Errorf("size = %v", v)
	}
}

func TestPublish(t *testing.T) {
	tk := NewToolkit()
	if _, err := tk.LoadString(nestedSchema); err != nil {
		t.Fatal(err)
	}
	text, err := tk.Publish(nil, platform.Sparc32)
	if err != nil {
		t.Fatal(err)
	}
	// Published text must reload into an equivalent type space.
	tk2 := NewToolkit()
	if _, err := tk2.LoadString(text); err != nil {
		t.Fatalf("published schema does not reload: %v\n%s", err, text)
	}
	f1, _ := tk.GenerateFormat("Track", platform.Sparc32)
	f2, err := tk2.GenerateFormat("Track", platform.Sparc32)
	if err != nil {
		t.Fatal(err)
	}
	if f1.ID() != f2.ID() {
		t.Errorf("published round trip changed the format:\n%s\n%s", f1, f2)
	}
	if _, err := tk.Publish([]string{"Missing"}, platform.Sparc32); err == nil {
		t.Error("publishing unknown type should fail")
	}
}

func TestGenerateGo(t *testing.T) {
	tk := NewToolkit()
	if _, err := tk.LoadString(nestedSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := tk.LoadString(hydroSchemas); err != nil {
		t.Fatal(err)
	}
	src, err := tk.GenerateGo("messages", nil, platform.X8664)
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	for _, want := range []string{
		"package messages",
		"type Point struct",
		"type Track struct",
		"type JoinRequest struct",
		"type SimpleData struct",
		"[]Point",
		"IpAddr uint64",
		"[]float32",
		"`xmit:\"ip_addr\"`",
		"Timestep int32",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("generated source missing %q:\n%s", want, text)
		}
	}
	// Point must be emitted before Track (dependency order).
	if strings.Index(text, "type Point") > strings.Index(text, "type Track") {
		t.Error("nested type emitted after its user")
	}
	if _, err := tk.GenerateGo("", nil, platform.X8664); err == nil {
		t.Error("empty package name should fail")
	}
	if _, err := tk.GenerateGo("p", []string{"Missing"}, platform.X8664); err == nil {
		t.Error("unknown type should fail")
	}
	names := tk.GeneratedNames()
	if names["ip_addr"] != "" && names["JoinRequest"] != "JoinRequest" {
		t.Errorf("GeneratedNames = %v", names)
	}
}

func TestExportName(t *testing.T) {
	cases := map[string]string{
		"ip_addr":   "IpAddr",
		"timestep":  "Timestep",
		"flightNum": "FlightNum",
		"ds-addr":   "DsAddr",
		"a.b":       "AB",
		"":          "Field",
		"x":         "X",
	}
	for in, want := range cases {
		if got := exportName(in); got != want {
			t.Errorf("exportName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestIncludes: a document pulls shared type definitions in via
// xsd:include, resolved relative to its own URL.
func TestIncludes(t *testing.T) {
	srv := discovery.NewDocServer()
	srv.Publish("shared/point.xsd", []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="Point">
	    <xsd:element name="x" type="xsd:double" />
	    <xsd:element name="y" type="xsd:double" />
	  </xsd:complexType>
	</xsd:schema>`))
	srv.Publish("shared/track.xsd", []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:include schemaLocation="point.xsd" />
	  <xsd:complexType name="Track">
	    <xsd:element name="n" type="xsd:int" />
	    <xsd:element name="pts" type="Point" maxOccurs="n" />
	  </xsd:complexType>
	</xsd:schema>`))
	// A document that only includes.
	srv.Publish("all.xsd", []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:include schemaLocation="shared/track.xsd" />
	</xsd:schema>`))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	tk := NewToolkit()
	names, err := tk.LoadURL(ts.URL + "/all.xsd")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("loaded %v", names)
	}
	f, err := tk.GenerateFormat("Track", platform.Sparc32)
	if err != nil {
		t.Fatal(err)
	}
	if f.Fields[1].Sub == nil || f.Fields[1].Sub.Name != "Point" {
		t.Errorf("included type not resolved: %s", f)
	}
}

// TestIncludeCycleTolerated: mutually including documents load once each.
func TestIncludeCycleTolerated(t *testing.T) {
	srv := discovery.NewDocServer()
	srv.Publish("a.xsd", []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:include schemaLocation="b.xsd" />
	  <xsd:complexType name="A"><xsd:element name="x" type="xsd:int" /></xsd:complexType>
	</xsd:schema>`))
	srv.Publish("b.xsd", []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:include schemaLocation="a.xsd" />
	  <xsd:complexType name="B"><xsd:element name="a" type="A" /></xsd:complexType>
	</xsd:schema>`))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	tk := NewToolkit()
	if _, err := tk.LoadURL(ts.URL + "/a.xsd"); err != nil {
		t.Fatal(err)
	}
	if tk.Type("A") == nil || tk.Type("B") == nil {
		t.Errorf("types = %v", tk.Types())
	}
	if _, err := tk.GenerateFormat("B", platform.X8664); err != nil {
		t.Fatal(err)
	}
}

// TestIncludeErrors: broken references surface with context; inline
// documents may not use relative includes.
func TestIncludeErrors(t *testing.T) {
	srv := discovery.NewDocServer()
	srv.Publish("broken.xsd", []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:include schemaLocation="missing.xsd" />
	</xsd:schema>`))
	srv.Publish("noloc.xsd", []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:include />
	</xsd:schema>`))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	tk := NewToolkit()
	if _, err := tk.LoadURL(ts.URL + "/broken.xsd"); err == nil {
		t.Error("missing include should fail")
	}
	if _, err := tk.LoadURL(ts.URL + "/noloc.xsd"); err == nil {
		t.Error("include without schemaLocation should fail")
	}
	if _, err := tk.LoadString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:include schemaLocation="relative.xsd" />
	</xsd:schema>`); err == nil {
		t.Error("relative include in an inline document should fail")
	}
}

// TestIncludeFromFiles: includes resolve for filesystem documents too.
func TestIncludeFromFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "point.xsd"), []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="Point"><xsd:element name="x" type="xsd:double" /></xsd:complexType>
	</xsd:schema>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.xsd"), []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:include schemaLocation="point.xsd" />
	  <xsd:complexType name="M"><xsd:element name="p" type="Point" /></xsd:complexType>
	</xsd:schema>`), 0o644); err != nil {
		t.Fatal(err)
	}
	tk := NewToolkit()
	if _, err := tk.LoadURL(filepath.Join(dir, "main.xsd")); err != nil {
		t.Fatal(err)
	}
	if _, err := tk.GenerateFormat("M", platform.Sparc32); err != nil {
		t.Fatal(err)
	}
}

const enumSchema = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Phase">
    <xsd:restriction base="xsd:string">
      <xsd:enumeration value="solid" />
      <xsd:enumeration value="liquid" />
      <xsd:enumeration value="vapor" />
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:complexType name="CellState">
    <xsd:element name="id" type="xsd:int" />
    <xsd:element name="phase" type="Phase" />
    <xsd:element name="mass" type="xsd:double" />
  </xsd:complexType>
</xsd:schema>`

// TestEnumerations: simpleType enumerations translate to unsigned wire
// fields with symbolic values in the toolkit and constants in generated Go.
func TestEnumerations(t *testing.T) {
	tk := NewToolkit()
	if _, err := tk.LoadString(enumSchema); err != nil {
		t.Fatal(err)
	}
	e := tk.Enum("Phase")
	if e == nil || len(e.Values) != 3 {
		t.Fatalf("Enum = %+v", e)
	}
	if e.Index("liquid") != 1 || e.Value(2) != "vapor" || e.Index("plasma") != -1 || e.Value(9) != "" {
		t.Error("enum lookups wrong")
	}
	if got := tk.Enums(); len(got) != 1 || got[0] != "Phase" {
		t.Errorf("Enums = %v", got)
	}

	f, err := tk.GenerateFormat("CellState", platform.Sparc32)
	if err != nil {
		t.Fatal(err)
	}
	i := f.FieldByName("phase")
	if f.Fields[i].Kind.String() != "enum" || f.Fields[i].Size != 4 {
		t.Errorf("phase field = %+v", f.Fields[i])
	}

	// Round trip through PBIO using the wire index.
	ctx := pbio.NewContext(pbio.WithPlatform(platform.Sparc32))
	tok, err := tk.Register("CellState", ctx)
	if err != nil {
		t.Fatal(err)
	}
	type CellState struct {
		Id    int32
		Phase uint32
		Mass  float64
	}
	in := CellState{Id: 2, Phase: uint32(e.Index("vapor")), Mass: 1.5}
	b, err := ctx.Bind(tok.Format, &in)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := b.Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out CellState
	if _, err := ctx.Decode(msg, &out); err != nil {
		t.Fatal(err)
	}
	if e.Value(int(out.Phase)) != "vapor" {
		t.Errorf("decoded phase = %d (%s)", out.Phase, e.Value(int(out.Phase)))
	}

	// Generated Go includes the constants.
	src, err := tk.GenerateGo("messages", nil, platform.X8664)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PhaseSolid uint32 = iota", "PhaseLiquid", "PhaseVapor", "`xmit:\"phase\"`"} {
		if !strings.Contains(string(src), want) {
			t.Errorf("generated source missing %q:\n%s", want, src)
		}
	}
}

func TestEnumConflicts(t *testing.T) {
	tk := NewToolkit()
	if _, err := tk.LoadString(enumSchema); err != nil {
		t.Fatal(err)
	}
	// An enum name colliding with a complexType.
	if _, err := tk.LoadString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="Phase"><xsd:element name="x" type="xsd:int" /></xsd:complexType>
	</xsd:schema>`); err == nil {
		t.Error("complexType colliding with an enumeration should fail")
	}
	// Conflicting enum values from another source.
	srv := discovery.NewDocServer()
	srv.Publish("other.xsd", []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:simpleType name="Phase">
	    <xsd:restriction base="xsd:string"><xsd:enumeration value="different" /></xsd:restriction>
	  </xsd:simpleType>
	  <xsd:complexType name="Q"><xsd:element name="x" type="xsd:int" /></xsd:complexType>
	</xsd:schema>`))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, err := tk.LoadURL(ts.URL + "/other.xsd"); err == nil {
		t.Error("conflicting enum redefinition should fail")
	}
}

// TestGenerateGoDocs: schema documentation becomes Go comments.
func TestGenerateGoDocs(t *testing.T) {
	tk := NewToolkit()
	if _, err := tk.LoadString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="Reading">
	    <xsd:annotation><xsd:documentation>One instrument reading.</xsd:documentation></xsd:annotation>
	    <xsd:element name="value" type="xsd:double">
	      <xsd:annotation><xsd:documentation>Measured value in SI units.</xsd:documentation></xsd:annotation>
	    </xsd:element>
	  </xsd:complexType>
	</xsd:schema>`); err != nil {
		t.Fatal(err)
	}
	src, err := tk.GenerateGo("m", nil, platform.X8664)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"// One instrument reading.", "// Measured value in SI units."} {
		if !strings.Contains(string(src), want) {
			t.Errorf("generated source missing %q:\n%s", want, src)
		}
	}
}

// TestToolkitMetrics: toolkit loads and registrations report timings into
// the configured obs registry, including the registration-time multiplier.
func TestToolkitMetrics(t *testing.T) {
	srv := discovery.NewDocServer()
	srv.Publish("hydro.xsd", []byte(hydroSchemas))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	m := obs.NewRegistry()
	tk := NewToolkit(WithMetrics(m))
	if _, err := tk.LoadURL(ts.URL + "/hydro.xsd"); err != nil {
		t.Fatal(err)
	}
	ctx := pbio.NewContext()
	if _, err := tk.Register("SimpleData", ctx); err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string]float64{
		"core_load_total":     1,
		"core_register_total": 1,
		"core_load_ns":        1, // histogram Value() is its count
		"core_translate_ns":   1,
		"core_register_ns":    1,
		// The toolkit's repository shares the registry, so the discovery
		// counters land here too.
		"discovery_fetch_total": 1,
	} {
		if got, ok := m.Value(name); !ok || got != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, got, ok, want)
		}
	}
	// XML-discovered registration = translate + native register, so the
	// multiplier is necessarily > 1 once both histograms have samples.
	if got, ok := m.Value("core_register_multiplier"); !ok || got <= 1 {
		t.Errorf("core_register_multiplier = %v (ok=%v), want > 1", got, ok)
	}
}
