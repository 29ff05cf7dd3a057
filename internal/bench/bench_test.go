package bench

import (
	"strings"
	"testing"

	"github.com/open-metadata/xmit/internal/core"
	"github.com/open-metadata/xmit/internal/pbio"
)

// TestPocSizesMatchPaper pins the proof-of-concept workloads to Figure 3's
// x-axis labels: structure sizes 32 [72], 52 [104], 180 [268].
func TestPocSizesMatchPaper(t *testing.T) {
	want := []struct {
		name            string
		structSize, enc int
	}{
		{"Poc32", 32, 72},
		{"Poc52", 52, 104},
		{"Poc180", 180, 268},
	}
	for i, w := range PocWorkloads() {
		ctx, f, err := w.BuildFormats(Paper)
		if err != nil {
			t.Fatal(err)
		}
		if f.Size != want[i].structSize {
			t.Errorf("%s struct size = %d, want %d", w.Name, f.Size, want[i].structSize)
		}
		b, err := ctx.Bind(f, w.Sample)
		if err != nil {
			t.Fatal(err)
		}
		n, err := b.EncodedSize(w.Sample)
		if err != nil {
			t.Fatal(err)
		}
		if n != want[i].enc {
			t.Errorf("%s encoded size = %d, want %d", w.Name, n, want[i].enc)
		}
	}
}

// TestSchemaEquivalence: the XML document each workload's XMIT path
// parses translates to a format byte-identical to its compiled-in one — the
// two registration paths measured by Fig3/Fig6 really do register the same
// thing.
func TestSchemaEquivalence(t *testing.T) {
	hw, err := HydroWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append(PocWorkloads(), hw...) {
		_, native, err := w.BuildFormats(Paper)
		if err != nil {
			t.Fatal(err)
		}
		schema := w.Schema
		if schema == "" {
			if schema, err = w.SchemaFor(Paper); err != nil {
				t.Fatal(err)
			}
		}
		tk := core.NewToolkit()
		if _, err := tk.LoadString(schema); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		tok, err := tk.Register(w.Name, pbio.NewContext(pbio.WithPlatform(Paper)))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if tok.Format.ID() != native.ID() {
			t.Errorf("%s: XMIT format %v differs from the compiled-in %v", w.Name, tok.Format.ID(), native.ID())
		}
	}
}

func TestIOFieldsFromFormatRoundTrip(t *testing.T) {
	hw, err := HydroWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range hw {
		_, f, err := w.BuildFormats(Paper)
		if err != nil {
			t.Fatalf("%s: reconstructed field lists do not register: %v", w.Name, err)
		}
		sets, err := IOFieldsFromFormat(f)
		if err != nil {
			t.Fatal(err)
		}
		if sets[len(sets)-1].Name != w.Name {
			t.Errorf("%s: top-level format must come last, got %v", w.Name, sets)
		}
	}
}

func TestHydroWorkloadSizes(t *testing.T) {
	hw, err := HydroWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	wantSizes := map[string]int{"SimpleData": 12, "JoinRequest": 20, "ControlMsg": 44, "GridMeta": 152}
	wantEnc := map[string]int{"SimpleData": 262176, "JoinRequest": 48, "ControlMsg": 44, "GridMeta": 152}
	for _, w := range hw {
		ctx, f, err := w.BuildFormats(Paper)
		if err != nil {
			t.Fatal(err)
		}
		if f.Size != wantSizes[w.Name] {
			t.Errorf("%s struct size = %d, want %d", w.Name, f.Size, wantSizes[w.Name])
		}
		b, err := ctx.Bind(f, w.Sample)
		if err != nil {
			t.Fatal(err)
		}
		n, err := b.EncodedSize(w.Sample)
		if err != nil {
			t.Fatal(err)
		}
		if n != wantEnc[w.Name] {
			t.Errorf("%s encoded size = %d, want %d", w.Name, n, wantEnc[w.Name])
		}
	}
}

func TestPayloads(t *testing.T) {
	for _, size := range PayloadSizes {
		p, err := NewPayload(size)
		if err != nil {
			t.Fatal(err)
		}
		if 12+4*len(p.Values) != size {
			t.Errorf("payload for %d is %d bytes", size, 12+4*len(p.Values))
		}
	}
	if _, err := NewPayload(5); err == nil {
		t.Error("unrepresentable size should fail")
	}
}

// The experiment drivers run end to end at quick settings; sanity-check the
// relationships the paper's figures rely on (with generous slack — these
// are smoke thresholds; TestPaperClaims holds the calibrated bands).
func TestFig6AndFig7Quick(t *testing.T) {
	rows, err := Fig6(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Fig6 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RDM <= 0 {
			t.Errorf("%s: RDM = %.2f", r.Name, r.RDM)
		}
	}

	enc, err := Fig7(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 4 {
		t.Fatalf("Fig7 rows = %d", len(enc))
	}
	for _, r := range enc {
		if r.Ratio <= 0 {
			t.Errorf("%s: ratio %.2f", r.Name, r.Ratio)
		}
	}
}

func TestFig8Quick(t *testing.T) {
	rows, err := Fig8(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PayloadSizes) {
		t.Fatalf("Fig8 rows = %d", len(rows))
	}
	last := rows[len(rows)-1]
	if memcpy := last.Encode.Ns(len(Fig8Mechs)); memcpy <= 0 {
		t.Errorf("memcpy floor not timed at 100 KB: %.0f ns", memcpy)
	}
	for _, slow := range []int{mechXML, mechMPI} {
		if r := last.Encode.Ratio(slow, mechPBIO); r <= 1 {
			t.Errorf("%s encode should be slower than PBIO at 100 KB: ratio %.2f", Fig8Mechs[slow], r)
		}
	}
}

func TestFig1Quick(t *testing.T) {
	res, err := Fig1(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.BinaryBytes != 12+4*3355 {
		t.Errorf("binary bytes = %d", res.BinaryBytes)
	}
	if res.Expansion < 2 || res.Expansion > 8 {
		t.Errorf("expansion = %.2f, want the paper's ~3x ballpark", res.Expansion)
	}
	if res.XMLNs <= res.BinaryNs {
		t.Errorf("XML exchange %.0f ns should exceed binary exchange %.0f ns", res.XMLNs, res.BinaryNs)
	}
	if res.ModelRatio <= 1 {
		t.Errorf("modelled ratio = %.2f", res.ModelRatio)
	}
}

func TestExpansionTable(t *testing.T) {
	rows, err := Expansion()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("expansion rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Factor <= 1 {
			t.Errorf("%s: XML should always be larger (factor %.2f)", r.Name, r.Factor)
		}
	}
}

func TestPrinters(t *testing.T) {
	var sb strings.Builder
	reg, err := Fig3(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	PrintFig3(&sb, reg)
	reg6, err := Fig6(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	PrintFig6(&sb, reg6)
	enc, err := Fig7(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	PrintFig7(&sb, enc)
	amort, err := Amortization(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	PrintAmortization(&sb, amort)
	f8, err := Fig8(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	PrintFig8(&sb, f8)
	f1, err := Fig1(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f1.BinaryBytes != 12+4*fig1Floats {
		t.Errorf("Figure 1 binary message = %d bytes, want %d", f1.BinaryBytes, 12+4*fig1Floats)
	}
	PrintFig1(&sb, f1)
	exp, err := Expansion()
	if err != nil {
		t.Fatal(err)
	}
	PrintExpansion(&sb, exp)
	out := sb.String()
	for _, want := range []string{"RDM", "Figure 7", "break-even", "Figure 8", "decode times", "expansion", "XML"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q", want)
		}
	}
}
