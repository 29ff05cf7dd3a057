package bench

import (
	"fmt"
	"io"
)

// AmortRow quantifies the paper's §4.2 argument: XMIT's extra registration
// cost is a one-time charge amortised across every message sent in that
// format, and "the number of messages sent in a particular format can
// reasonably be expected to dominate the number of format discoveries".
type AmortRow struct {
	Name        string
	ExtraRegNs  float64 // XMIT registration - native registration
	EncodeNs    float64 // per-message marshal cost
	BreakEvenAt float64 // messages after which the extra cost vanishes
	// ShareAt1000 is the fraction of total cost attributable to the
	// extra registration after 1000 messages.
	ShareAt1000 float64
}

// Amortization times each Hydrology format's two registrations (Figure 6)
// and its native encode (Figure 7) in one row, and prices XMIT's surcharge
// in messages as the per-round ratio XMIT/encode less PBIO/encode: a slow
// spell of the host stretches all three operations of a round alike, so
// it cancels instead of landing on one side of the difference.
func Amortization(o Options) ([]AmortRow, error) {
	ws, err := HydroWorkloads()
	if err != nil {
		return nil, err
	}
	var rows []AmortRow
	for _, w := range ws {
		reg, err := regOps(w)
		if err != nil {
			return nil, err
		}
		enc, err := encOps(w)
		if err != nil {
			return nil, err
		}
		t, err := measure(o, append(reg, enc[0]))
		if err != nil {
			return nil, err
		}
		be := t.Ratio(1, 2) - t.Ratio(0, 2)
		rows = append(rows, AmortRow{Name: w.Name, ExtraRegNs: be * t.Ns(2), EncodeNs: t.Ns(2),
			BreakEvenAt: be, ShareAt1000: be / (be + 1000)})
	}
	return rows, nil
}

// PrintAmortization renders the §4.2 table.
func PrintAmortization(w io.Writer, rows []AmortRow) {
	fmt.Fprintf(w, "Amortisation (paper §4.2): XMIT's one-time registration surcharge vs per-message cost\n")
	fmt.Fprintf(w, "%-12s %16s %16s %18s %22s\n",
		"format", "surcharge (ms)", "encode (ms)", "break-even (msgs)", "share after 1000 msgs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %16.4f %16.5f %18.1f %21.2f%%\n",
			r.Name, ms(r.ExtraRegNs), ms(r.EncodeNs), r.BreakEvenAt, 100*r.ShareAt1000)
	}
}
