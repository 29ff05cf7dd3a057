package bench

import (
	"encoding/binary"
	"fmt"

	"github.com/open-metadata/xmit/internal/cdr"
	"github.com/open-metadata/xmit/internal/core"
	"github.com/open-metadata/xmit/internal/hydro"
	"github.com/open-metadata/xmit/internal/mpidt"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/xdr"
	"github.com/open-metadata/xmit/internal/xmlwire"
	"github.com/open-metadata/xmit/internal/xsd"
)

// Paper is the experiment platform: the sparc32 testbed of Section 4.3.
var Paper = platform.Sparc32

// opsFor builds one row of operations per workload.
func opsFor(ws []RegWorkload, build func(RegWorkload) ([]Op, error)) ([][]Op, error) {
	rows := make([][]Op, len(ws))
	for i, w := range ws {
		ops, err := build(w)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", w.Name, err)
		}
		rows[i] = ops
	}
	return rows, nil
}

// RegRow is one bar pair of Figures 3 and 6.
type RegRow struct {
	Name        string
	StructSize  int
	EncodedSize int
	LeafFields  int
	PBIONs      float64 // compiled-in registration time
	XMITNs      float64 // XML parse + translate + registration time
	RDM         float64 // Remote Discovery Multiplier: median per-round XMIT/PBIO
}

// regOps builds a workload's two registrations: PBIO registers the
// compiled-in field lists into a fresh context; XMIT parses the XML
// description and registers what it translates to (the paper's Figure 3/6
// definition; retrieval is excluded, as there).
func regOps(w RegWorkload) ([]Op, error) {
	schema := w.Schema
	if schema == "" {
		var err error
		if schema, err = w.SchemaFor(Paper); err != nil {
			return nil, err
		}
	}
	return []Op{
		{Name: w.Name + "/PBIO", Run: func() error {
			_, _, err := w.BuildFormats(Paper)
			return err
		}},
		{Name: w.Name + "/XMIT", Run: func() error {
			tk := core.NewToolkit()
			if _, err := tk.LoadString(schema); err != nil {
				return err
			}
			_, err := tk.Register(w.Name, pbio.NewContext(pbio.WithPlatform(Paper)))
			return err
		}},
	}, nil
}

// Fig3Ops builds Figure 3's operations: PBIO and XMIT registration of each
// proof-of-concept structure.
func Fig3Ops() ([][]Op, error) { return opsFor(PocWorkloads(), regOps) }

// Fig6Ops builds Figure 6's operations: PBIO and XMIT registration of each
// Hydrology format.
func Fig6Ops() ([][]Op, error) {
	ws, err := HydroWorkloads()
	if err != nil {
		return nil, err
	}
	return opsFor(ws, regOps)
}

// regRows measures both registration paths for each workload.
func regRows(o Options, ws []RegWorkload) ([]RegRow, error) {
	var rows []RegRow
	for _, w := range ws {
		ctx, f, err := w.BuildFormats(Paper)
		if err != nil {
			return nil, err
		}
		b, err := ctx.Bind(f, w.Sample)
		if err != nil {
			return nil, err
		}
		row := RegRow{Name: w.Name, StructSize: f.Size, LeafFields: f.FieldCount()}
		if row.EncodedSize, err = b.EncodedSize(w.Sample); err != nil {
			return nil, err
		}
		if w.WantStructSize != 0 && row.StructSize != w.WantStructSize {
			return nil, fmt.Errorf("bench: %s struct size %d, want %d", w.Name, row.StructSize, w.WantStructSize)
		}
		if w.WantEncodedSize != 0 && row.EncodedSize != w.WantEncodedSize {
			return nil, fmt.Errorf("bench: %s encoded size %d, want %d", w.Name, row.EncodedSize, w.WantEncodedSize)
		}
		ops, err := regOps(w)
		if err != nil {
			return nil, err
		}
		t, err := measure(o, ops)
		if err != nil {
			return nil, err
		}
		row.PBIONs, row.XMITNs, row.RDM = t.Ns(0), t.Ns(1), t.Ratio(1, 0)
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig3 measures format registration costs for the proof-of-concept
// structures (paper Figure 3: structure sizes 32 [72], 52 [104], 180 [268];
// RDM a small, roughly constant factor).
func Fig3(o Options) ([]RegRow, error) { return regRows(o, PocWorkloads()) }

// Fig6 measures registration costs for the Hydrology formats (paper
// Figure 6: RDM 2.11–4).
func Fig6(o Options) ([]RegRow, error) {
	ws, err := HydroWorkloads()
	if err != nil {
		return nil, err
	}
	return regRows(o, ws)
}

// HydroWorkloads derives registration workloads for the four Hydrology
// application formats (paper Figure 6: 12, 20, 44, 152 bytes), ordered as
// the figure plots them, each with a representative sample: Figure 7
// encodes it, and its encoded size is reported beside Figures 6 and 7.
func HydroWorkloads() ([]RegWorkload, error) {
	tk := core.NewToolkit()
	if _, err := tk.LoadString(hydro.SchemaDocument); err != nil {
		return nil, err
	}
	big, _ := NewPayload(262176) // the 262176-byte frame of Figure 7
	samples := map[string]any{
		"SimpleData":  &hydro.SimpleData{Timestep: 42, Data: big.Values[:65541]},
		"JoinRequest": &hydro.JoinRequest{Name: pad("vis5d-client", 24), Server: 1, IPAddr: 0x0a000001, Pid: 777, DsAddr: 0x8000},
		"ControlMsg":  &hydro.ControlMsg{Command: hydro.CmdSetView, Zoom: 2, RefreshRate: 30},
		"GridMeta":    &hydro.GridMeta{Nx: 256, Ny: 256, HMax: 2.5, Checksum: 0x1234},
	}
	var out []RegWorkload
	for _, name := range hydro.FormatNames {
		f, err := tk.GenerateFormat(name, Paper)
		if err != nil {
			return nil, err
		}
		fieldSets, err := IOFieldsFromFormat(f)
		if err != nil {
			return nil, err
		}
		s, err := xsd.FromFormat(f)
		if err != nil {
			return nil, err
		}
		out = append(out, RegWorkload{Name: name, FieldSets: fieldSets, Schema: s.String(), Sample: samples[name]})
	}
	return out, nil
}

// EncRow is one point of Figure 7: marshal time using native metadata
// versus XMIT-generated metadata.
type EncRow struct {
	Name        string
	EncodedSize int
	NativeNs    float64
	XMITNs      float64
	Ratio       float64 // median per-round XMIT / native; the paper shows ~1.0
}

// encOps builds a Hydrology workload's two encodes of its sample: one
// bound to the compiled-in format, one bound to the format XMIT translated
// from the workload's XML document, in its own context.
func encOps(w RegWorkload) ([]Op, error) {
	nativeCtx, nativeFmt, err := w.BuildFormats(Paper)
	if err != nil {
		return nil, err
	}
	nb, err := nativeCtx.Bind(nativeFmt, w.Sample)
	if err != nil {
		return nil, err
	}
	tk := core.NewToolkit()
	if _, err := tk.LoadString(w.Schema); err != nil {
		return nil, err
	}
	xmitCtx := pbio.NewContext(pbio.WithPlatform(Paper))
	tok, err := tk.Register(w.Name, xmitCtx)
	if err != nil {
		return nil, err
	}
	xb, err := xmitCtx.Bind(tok.Format, w.Sample)
	if err != nil {
		return nil, err
	}
	size, err := nb.EncodedSize(w.Sample)
	if err != nil {
		return nil, err
	}
	var buf []byte
	encode := func(name string, b *pbio.Binding) Op {
		return Op{Name: w.Name + "/" + name, Bytes: size, Run: func() (err error) {
			buf, err = b.EncodeBody(buf[:0], w.Sample)
			return err
		}}
	}
	return []Op{encode("NativeMetadata", nb), encode("XMITMetadata", xb)}, nil
}

// Fig7Ops builds Figure 7's operations: each Hydrology sample encoded with
// native and with XMIT-generated metadata.
func Fig7Ops() ([][]Op, error) {
	ws, err := HydroWorkloads()
	if err != nil {
		return nil, err
	}
	return opsFor(ws, encOps)
}

// Fig7 measures structure encoding times with PBIO-native and
// XMIT-generated metadata for the Hydrology formats (paper Figure 7: the
// two are indistinguishable, because translation output is ordinary
// metadata).
func Fig7(o Options) ([]EncRow, error) {
	ws, err := HydroWorkloads()
	if err != nil {
		return nil, err
	}
	var rows []EncRow
	for _, w := range ws {
		ops, err := encOps(w)
		if err != nil {
			return nil, err
		}
		t, err := measure(o, ops)
		if err != nil {
			return nil, err
		}
		rows = append(rows, EncRow{Name: w.Name, EncodedSize: ops[0].Bytes,
			NativeNs: t.Ns(0), XMITNs: t.Ns(1), Ratio: t.Ratio(1, 0)})
	}
	return rows, nil
}

// Fig8Mechs names Figure 8's mechanisms in the order of a Fig8Case's
// Encode and Decode operations and of its Timing columns: PBIO, MPI
// (MPICH stand-in), CDR (CORBA stand-in), XDR, and XML text.
var Fig8Mechs = []string{"PBIO", "MPI", "CDR", "XDR", "XML"}

// Indices into Fig8Mechs.
const (
	mechPBIO = iota
	mechMPI
	mechCDR
	mechXDR
	mechXML
)

// Fig8Case is one payload size of Figure 8: every mechanism's send-side
// encode and receive-side decode, and the floor of a plain copy of PBIO's
// encoded bytes.
type Fig8Case struct {
	Size           int
	Encode, Decode []Op
	Memcpy         Op
}

// Fig8Cases builds Figure 8's operations for each payload size.
func Fig8Cases() ([]Fig8Case, error) {
	var cases []Fig8Case
	for _, size := range PayloadSizes {
		c, err := fig8Case(size)
		if err != nil {
			return nil, fmt.Errorf("bench: %d B payload: %w", size, err)
		}
		cases = append(cases, c)
	}
	return cases, nil
}

func fig8Case(size int) (Fig8Case, error) {
	c := Fig8Case{Size: size}
	payload, err := NewPayload(size)
	if err != nil {
		return c, err
	}
	ctx := pbio.NewContext(pbio.WithPlatform(Paper))
	dynFmt, err := ctx.RegisterFields("Payload", PayloadFields())
	if err != nil {
		return c, err
	}
	statFmt, err := ctx.RegisterFields("PayloadStatic", StaticPayloadFields(len(payload.Values)))
	if err != nil {
		return c, err
	}
	pb, err := ctx.Bind(dynFmt, payload)
	if err != nil {
		return c, err
	}
	cdrC, err := cdr.NewCodec(dynFmt, payload)
	if err != nil {
		return c, err
	}
	xdrC, err := xdr.NewCodec(dynFmt, payload)
	if err != nil {
		return c, err
	}
	xmlC, err := xmlwire.NewCodec(dynFmt, payload)
	if err != nil {
		return c, err
	}
	mpiType, err := mpidt.FromFormat(statFmt)
	if err != nil {
		return c, err
	}
	// The MPI sender packs from the application's native memory image
	// (built once; producing it is not part of MPI_Pack), and the receiver
	// unpacks into one.
	sb, err := ctx.Bind(statFmt, payload)
	if err != nil {
		return c, err
	}
	mem, err := sb.EncodeBody(nil, payload)
	if err != nil {
		return c, err
	}
	memOut := make([]byte, len(mem))
	memOrder := orderOf(Paper)

	encoders := [...]func([]byte) ([]byte, error){
		mechPBIO: func(dst []byte) ([]byte, error) { return pb.EncodeBody(dst, payload) },
		mechMPI:  func(dst []byte) ([]byte, error) { return mpidt.Pack(mem, memOrder, 1, mpiType, dst) },
		mechCDR:  func(dst []byte) ([]byte, error) { return cdrC.Encode(dst, payload) },
		mechXDR:  func(dst []byte) ([]byte, error) { return xdrC.Encode(dst, payload) },
		mechXML:  func(dst []byte) ([]byte, error) { return xmlC.Encode(dst, payload) },
	}
	var out Payload
	decoders := [...]func([]byte) error{
		mechPBIO: func(msg []byte) error { return ctx.DecodeBody(dynFmt, msg, &out) },
		mechMPI:  func(msg []byte) error { return mpidt.Unpack(msg, memOut, memOrder, 1, mpiType) },
		mechCDR:  func(msg []byte) error { return cdrC.Decode(msg, &out) },
		mechXDR:  func(msg []byte) error { return xdrC.Decode(msg, &out) },
		mechXML:  func(msg []byte) error { return xmlC.Decode(msg, &out) },
	}
	suffix := "/" + sizeName(size)
	var buf []byte
	msgs := make([][]byte, len(Fig8Mechs))
	for i, mech := range Fig8Mechs {
		enc, dec := encoders[i], decoders[i]
		if msgs[i], err = enc(nil); err != nil {
			return c, fmt.Errorf("%s: %w", mech, err)
		}
		c.Encode = append(c.Encode, Op{Name: mech + suffix, Bytes: size, Run: func() (err error) {
			buf, err = enc(buf[:0])
			return err
		}})
		c.Decode = append(c.Decode, Op{Name: mech + suffix, Bytes: size, Run: func() error { return dec(msgs[i]) }})
	}
	floor := make([]byte, len(msgs[mechPBIO]))
	c.Memcpy = Op{Name: "memcpy" + suffix, Bytes: size, Run: func() error {
		copy(floor, msgs[mechPBIO])
		return nil
	}}
	return c, nil
}

// sizeName labels a payload size as the sub-benchmark names do: "100B",
// "1KB", ...
func sizeName(size int) string {
	if size%1000 == 0 {
		return fmt.Sprintf("%dKB", size/1000)
	}
	return fmt.Sprintf("%dB", size)
}

func orderOf(p *platform.Platform) binary.ByteOrder {
	if p.BigEndian() {
		return binary.BigEndian
	}
	return binary.LittleEndian
}

// Fig8Row is one message size of Figure 8.  Encode times Fig8Mechs'
// encodes followed by the memcpy floor (column len(Fig8Mechs)); Decode
// times their decodes.
type Fig8Row struct {
	PayloadBytes int
	Encode       Timing
	Decode       Timing
}

// Fig8 measures send-side encode and receive-side decode times for
// 100 B – 100 KB messages across PBIO, MPI, CDR, XDR, and XML text (paper
// Figure 8: PBIO fastest; MPI ~10x; XML orders of magnitude slower — the
// §4.1 claim, "2 to 4 orders of magnitude", lives on the decode side).
func Fig8(o Options) ([]Fig8Row, error) {
	cases, err := Fig8Cases()
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	for _, c := range cases {
		row := Fig8Row{PayloadBytes: c.Size}
		if row.Encode, err = measure(o, append(c.Encode, c.Memcpy)); err != nil {
			return nil, err
		}
		if row.Decode, err = measure(o, c.Decode); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig1Result reproduces the Figure 1 discussion: the XML encoding of a
// SimpleData message is ~3x the binary size, and an XML-based exchange
// sees about twice the latency of the XMIT/PBIO exchange.
type Fig1Result struct {
	Elements     int
	BinaryBytes  int
	XMLBytes     int
	Expansion    float64
	BinaryNs     float64 // one exchange: sender encode + receiver decode
	XMLNs        float64
	LatencyRatio float64 // median per-round XML / binary exchange
	// Modelled end-to-end one-way latencies on the paper's era network
	// (100 Mbit/s): one exchange's processing plus wire time.
	ModelBinaryNs float64
	ModelXMLNs    float64
	ModelRatio    float64
}

const modelBitsPerSecond = 100e6

// fig1Floats is the length of Figure 1's SimpleData array.
const fig1Floats = 3355

// Fig1Ops builds Figure 1's operations: one exchange of the SimpleData
// message (3355 floats) — the sender's encode and the receiver's decode —
// over the binary and over the XML wire format.  It also returns each
// format's message size.
func Fig1Ops() (ops []Op, binaryBytes, xmlBytes int, err error) {
	ctx := pbio.NewContext(pbio.WithPlatform(Paper))
	f, err := ctx.RegisterFields("SimpleData", []pbio.IOField{
		{Name: "timestep", Type: "integer"},
		{Name: "size", Type: "integer"},
		{Name: "data", Type: "float[size]"},
	})
	if err != nil {
		return nil, 0, 0, err
	}
	msg := &hydro.SimpleData{Timestep: 9999, Data: make([]float32, fig1Floats)}
	for i := range msg.Data {
		msg.Data[i] = 12.345
	}
	b, err := ctx.Bind(f, msg)
	if err != nil {
		return nil, 0, 0, err
	}
	xc, err := xmlwire.NewCodec(f, msg)
	if err != nil {
		return nil, 0, 0, err
	}
	exchange := func(name string, encode func([]byte) ([]byte, error), decode func([]byte) error) (Op, int, error) {
		var buf []byte
		first, err := encode(nil)
		return Op{Name: name, Run: func() (err error) {
			if buf, err = encode(buf[:0]); err != nil {
				return err
			}
			return decode(buf)
		}}, len(first), err
	}
	var out hydro.SimpleData
	bin, binaryBytes, err := exchange("BinaryXMIT",
		func(dst []byte) ([]byte, error) { return b.EncodeBody(dst, msg) },
		func(data []byte) error { return ctx.DecodeBody(f, data, &out) })
	if err != nil {
		return nil, 0, 0, err
	}
	xml, xmlBytes, err := exchange("XMLWire",
		func(dst []byte) ([]byte, error) { return xc.Encode(dst, msg) },
		func(data []byte) error { return xc.Decode(data, &out) })
	if err != nil {
		return nil, 0, 0, err
	}
	return []Op{bin, xml}, binaryBytes, xmlBytes, nil
}

// Fig1 measures message sizes and exchange latency for the SimpleData
// exchange of Figure 1, binary versus XML wire format.
func Fig1(o Options) (*Fig1Result, error) {
	ops, binaryBytes, xmlBytes, err := Fig1Ops()
	if err != nil {
		return nil, err
	}
	t, err := measure(o, ops)
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{
		Elements: fig1Floats, BinaryBytes: binaryBytes, XMLBytes: xmlBytes,
		Expansion: xmlwire.ExpansionFactor(xmlBytes, binaryBytes),
		BinaryNs:  t.Ns(0), XMLNs: t.Ns(1), LatencyRatio: t.Ratio(1, 0),
	}
	res.ModelBinaryNs = res.BinaryNs + float64(res.BinaryBytes)*8/modelBitsPerSecond*1e9
	res.ModelXMLNs = res.XMLNs + float64(res.XMLBytes)*8/modelBitsPerSecond*1e9
	res.ModelRatio = res.ModelXMLNs / res.ModelBinaryNs
	return res, nil
}

// ExpansionRow is one row of the §4.1/§5 message-expansion comparison.
type ExpansionRow struct {
	Name        string
	BinaryBytes int
	XMLBytes    int
	Factor      float64
}

// Expansion compares binary and XML encodings across the repository's
// message shapes (the paper reports 3x for SimpleData and 6–8x as typical
// for field-rich records): the Hydrology samples, a three-float
// SimpleData, and the field-rich proof-of-concept record.
func Expansion() ([]ExpansionRow, error) {
	ws, err := HydroWorkloads()
	if err != nil {
		return nil, err
	}
	small := ws[0]
	small.Name, small.Sample = "SimpleData(small)", &hydro.SimpleData{Timestep: 3, Data: []float32{12.345, 6.125, -3.5}}
	ws = append([]RegWorkload{ws[0], small}, append(ws[1:], PocWorkloads()[1])...)
	var rows []ExpansionRow
	for _, w := range ws {
		ctx, f, err := w.BuildFormats(Paper)
		if err != nil {
			return nil, err
		}
		b, err := ctx.Bind(f, w.Sample)
		if err != nil {
			return nil, err
		}
		bin, err := b.EncodeBody(nil, w.Sample)
		if err != nil {
			return nil, err
		}
		codec, err := xmlwire.NewCodec(f, w.Sample)
		if err != nil {
			return nil, err
		}
		x, err := codec.Encode(nil, w.Sample)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ExpansionRow{Name: w.Name, BinaryBytes: len(bin), XMLBytes: len(x),
			Factor: xmlwire.ExpansionFactor(len(x), len(bin))})
	}
	return rows, nil
}
