package bench

import (
	"fmt"
	"io"
)

func ms(ns float64) float64 { return ns / 1e6 }

// PrintFig3 renders the Figure 3 table.
func PrintFig3(w io.Writer, rows []RegRow) {
	fmt.Fprintf(w, "Figure 3: format registration costs, proof-of-concept structures (platform %s)\n", Paper)
	fmt.Fprintf(w, "%-10s %12s %14s %12s %18s %18s %8s\n",
		"structure", "struct size", "encoded size", "leaf fields", "PBIO reg (ms)", "XMIT reg (ms)", "RDM")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12d %14d %12d %18.4f %18.4f %8.2f\n",
			r.Name, r.StructSize, r.EncodedSize, r.LeafFields, ms(r.PBIONs), ms(r.XMITNs), r.RDM)
	}
}

// PrintFig6 renders the Figure 6 table.
func PrintFig6(w io.Writer, rows []RegRow) {
	fmt.Fprintf(w, "Figure 6: format registration costs, Hydrology application (platform %s)\n", Paper)
	fmt.Fprintf(w, "%-12s %12s %12s %18s %18s %8s\n",
		"format", "struct size", "leaf fields", "PBIO reg (ms)", "XMIT reg (ms)", "RDM")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12d %12d %18.4f %18.4f %8.2f\n",
			r.Name, r.StructSize, r.LeafFields, ms(r.PBIONs), ms(r.XMITNs), r.RDM)
	}
}

// PrintFig7 renders the Figure 7 table.
func PrintFig7(w io.Writer, rows []EncRow) {
	fmt.Fprintf(w, "Figure 7: structure encoding times, PBIO-native vs XMIT-generated metadata\n")
	fmt.Fprintf(w, "%-12s %14s %20s %20s %10s\n",
		"format", "encoded size", "native enc (ms)", "XMIT enc (ms)", "ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %14d %20.5f %20.5f %10.2f\n",
			r.Name, r.EncodedSize, ms(r.NativeNs), ms(r.XMITNs), r.Ratio)
	}
}

// PrintFig8 renders the Figure 8 tables, encode then decode (times in ms,
// like the paper's log-scale axis).
func PrintFig8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintf(w, "Figure 8: send-side encode times (ms) by mechanism and binary data size\n")
	fmt.Fprintf(w, "%12s %12s %12s %12s %12s %12s %12s\n",
		"size (B)", "memcpy", "PBIO", "MPI", "CORBA/CDR", "XDR", "XML")
	for _, r := range rows {
		e := r.Encode
		fmt.Fprintf(w, "%12d %12.5f %12.5f %12.5f %12.5f %12.5f %12.5f\n", r.PayloadBytes,
			ms(e.Ns(len(Fig8Mechs))), ms(e.Ns(mechPBIO)), ms(e.Ns(mechMPI)), ms(e.Ns(mechCDR)), ms(e.Ns(mechXDR)), ms(e.Ns(mechXML)))
	}
	fmt.Fprintf(w, "Figure 8, receive side (paper §4.1): decode times (ms)\n")
	fmt.Fprintf(w, "%12s %12s %12s %12s %12s %12s %12s\n",
		"size (B)", "PBIO", "MPI", "CORBA/CDR", "XDR", "XML", "XML/PBIO")
	for _, r := range rows {
		d := r.Decode
		fmt.Fprintf(w, "%12d %12.5f %12.5f %12.5f %12.5f %12.5f %11.0fx\n", r.PayloadBytes,
			ms(d.Ns(mechPBIO)), ms(d.Ns(mechMPI)), ms(d.Ns(mechCDR)), ms(d.Ns(mechXDR)), ms(d.Ns(mechXML)), d.Ratio(mechXML, mechPBIO))
	}
	if len(rows) > 0 {
		last := rows[len(rows)-1]
		e := last.Encode
		fmt.Fprintf(w, "encode at %d B: PBIO/memcpy = %.1fx, MPI/PBIO = %.1fx, CDR/PBIO = %.1fx, XML/PBIO = %.0fx\n",
			last.PayloadBytes, e.Ratio(mechPBIO, len(Fig8Mechs)), e.Ratio(mechMPI, mechPBIO),
			e.Ratio(mechCDR, mechPBIO), e.Ratio(mechXML, mechPBIO))
	}
}

// PrintFig1 renders the Figure 1 comparison.
func PrintFig1(w io.Writer, r *Fig1Result) {
	fmt.Fprintf(w, "Figure 1: SimpleData with %d floats, binary vs XML wire format\n", r.Elements)
	fmt.Fprintf(w, "  binary message: %8d bytes\n", r.BinaryBytes)
	fmt.Fprintf(w, "  XML message:    %8d bytes   (expansion %.2fx; paper reports ~3x)\n", r.XMLBytes, r.Expansion)
	fmt.Fprintf(w, "  exchange (encode + decode):  binary %.3f ms, XML %.3f ms  (XML/binary = %.2fx)\n",
		ms(r.BinaryNs), ms(r.XMLNs), r.LatencyRatio)
	fmt.Fprintf(w, "  modelled 100 Mb/s:           binary %.3f ms, XML %.3f ms  (XML/binary = %.2fx; paper reports ~2x)\n",
		ms(r.ModelBinaryNs), ms(r.ModelXMLNs), r.ModelRatio)
}

// PrintAllocs renders the steady-state allocation table.
func PrintAllocs(w io.Writer, rows []AllocRow) {
	fmt.Fprintf(w, "Steady-state hot path: heap allocations per message (pooled buffers, warm plans)\n")
	fmt.Fprintf(w, "%-16s %-14s %14s %12s\n", "workload", "op", "ns/op", "allocs/op")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-14s %14.1f %12.1f\n", r.Workload, r.Op, r.NsPerOp, r.AllocsPerOp)
	}
}

// PrintExpansion renders the §4.1/§5 expansion table.
func PrintExpansion(w io.Writer, rows []ExpansionRow) {
	fmt.Fprintf(w, "XML wire-format expansion (paper: ~3x for SimpleData, 6-8x for field-rich records)\n")
	fmt.Fprintf(w, "%-20s %14s %14s %10s\n", "message", "binary (B)", "XML (B)", "factor")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %14d %14d %10.2f\n", r.Name, r.BinaryBytes, r.XMLBytes, r.Factor)
	}
}
