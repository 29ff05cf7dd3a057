package bench

import (
	"strings"
	"testing"
)

func TestAblationRegistrationStages(t *testing.T) {
	rows, err := AblationRegistrationStages(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // 3 PoC + 4 Hydrology
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ParseFastNs <= 0 || r.ParseStdNs <= 0 || r.StreamNs <= 0 ||
			r.TranslateNs <= 0 || r.RegisterNs <= 0 {
			t.Errorf("%s: non-positive stage timing: %+v", r.Name, r)
		}
	}
}

func TestAblationConversion(t *testing.T) {
	rows, err := AblationConversion(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PayloadSizes) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.HomogeneousNs <= 0 || r.HeterogeneousNs <= 0 || r.SwapPenalty <= 0 {
			t.Errorf("bad row %+v", r)
		}
	}
}

func TestAblationFastPaths(t *testing.T) {
	rows, err := AblationFastPaths(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	// At 100 KB the reflect loop must be measurably slower than the
	// block move.
	if last.Speedup < 1.5 {
		t.Errorf("fast-path speedup at %d B = %.2fx, expected > 1.5x",
			last.PayloadBytes, last.Speedup)
	}
}

func TestPrintAblations(t *testing.T) {
	stages, err := AblationRegistrationStages(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	conv, err := AblationConversion(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	fast, err := AblationFastPaths(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintAblations(&sb, stages, conv, fast)
	for _, want := range []string{"Ablation A", "Ablation B", "Ablation C", "parser speedup"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestAmortization runs at the default settings: its 31 paired rounds keep
// the surcharge (XMIT/encode less PBIO/encode) clear of zero, where two
// 200 µs rounds could not.
func TestAmortization(t *testing.T) {
	rows, err := Amortization(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var sb strings.Builder
	PrintAmortization(&sb, rows)
	if !strings.Contains(sb.String(), "break-even") {
		t.Error("output missing break-even column")
	}
	for _, r := range rows {
		if r.EncodeNs <= 0 || r.BreakEvenAt <= 0 {
			t.Errorf("%s: %+v", r.Name, r)
		}
		if r.ShareAt1000 < 0 || r.ShareAt1000 > 1 {
			t.Errorf("%s: share = %f", r.Name, r.ShareAt1000)
		}
	}
}
