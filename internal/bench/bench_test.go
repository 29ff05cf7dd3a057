package bench

import (
	"strings"
	"testing"
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

// TestSchemaEquivalence: the XML document derived for each workload
// translates back to a byte-identical format — the two registration paths
// measured by Fig3/Fig6 really do register the same thing.
func TestSchemaEquivalence(t *testing.T) {
	ws := PocWorkloads()
	hw, err := HydroWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, hw...)
	for _, w := range ws {
		row, err := runRegWorkload(QuickOptions(), w, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if row.PBIONs <= 0 || row.XMITNs <= 0 {
			t.Errorf("%s: non-positive timings %+v", w.Name, row)
		}
	}
	// Explicit identity check for one nested case.
	w := ws[2] // Poc180
	_, nativeFmt, err := w.BuildFormats(Paper)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := w.SchemaFor(Paper)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(schema, "PocMid") {
		t.Fatalf("nested schema missing dependency:\n%s", schema)
	}
	row2, err := Fig3(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(row2) != 3 {
		t.Fatalf("Fig3 rows = %d", len(row2))
	}
	_ = nativeFmt
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
	samples := HydroSamples()
	wantEnc := map[string]int{"SimpleData": 262176, "JoinRequest": 48, "ControlMsg": 44, "GridMeta": 152}
	for _, w := range hw {
		ctx, f, err := w.BuildFormats(Paper)
		if err != nil {
			t.Fatal(err)
		}
		if f.Size != wantSizes[w.Name] {
			t.Errorf("%s struct size = %d, want %d", w.Name, f.Size, wantSizes[w.Name])
		}
		b, err := ctx.Bind(f, samples[w.Name])
		if err != nil {
			t.Fatal(err)
		}
		n, err := b.EncodedSize(samples[w.Name])
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
// are smoke thresholds, not the calibrated runs in EXPERIMENTS.md).
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
	if last.MemcpyNs <= 0 {
		t.Errorf("memcpy floor not timed at 100 KB: %.0f ns", last.MemcpyNs)
	}
	if last.XMLNs <= last.PBIONs {
		t.Errorf("XML (%.0f ns) should be slower than PBIO (%.0f ns) at 100 KB",
			last.XMLNs, last.PBIONs)
	}
	if last.MPINs <= last.PBIONs {
		t.Errorf("MPI (%.0f ns) should be slower than PBIO (%.0f ns) at 100 KB",
			last.MPINs, last.PBIONs)
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
	if res.XMLRTTNs <= res.BinaryRTTNs {
		t.Errorf("XML RTT %.0f should exceed binary RTT %.0f", res.XMLRTTNs, res.BinaryRTTNs)
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
	PrintFig6(&sb, reg)
	enc, _ := Fig7(QuickOptions())
	PrintFig7(&sb, enc)
	f8, _ := Fig8(QuickOptions())
	PrintFig8(&sb, f8)
	f1, err := Fig1(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	PrintFig1(&sb, f1)
	exp, _ := Expansion()
	PrintExpansion(&sb, exp)
	out := sb.String()
	for _, want := range []string{"RDM", "Figure 7", "Figure 8", "expansion", "XML"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q", want)
		}
	}
}
