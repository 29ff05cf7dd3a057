package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"github.com/open-metadata/xmit/internal/cdr"
	"github.com/open-metadata/xmit/internal/core"
	"github.com/open-metadata/xmit/internal/hydro"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/mpidt"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/xdr"
	"github.com/open-metadata/xmit/internal/xmlwire"
	"github.com/open-metadata/xmit/internal/xsd"
)

// Paper is the experiment platform: the sparc32 testbed of Section 4.3.
var Paper = platform.Sparc32

// RegRow is one bar pair of Figures 3 and 6.
type RegRow struct {
	Name        string
	StructSize  int
	EncodedSize int
	LeafFields  int
	PBIONs      float64 // compiled-in registration time
	XMITNs      float64 // XML parse + translate + registration time
	RDM         float64 // Remote Discovery Multiplier
}

// runRegWorkload measures both registration paths for one workload.
func runRegWorkload(o Options, w RegWorkload, sampleBinder func(*pbio.Context, *meta.Format) (int, error)) (RegRow, error) {
	row := RegRow{Name: w.Name}

	// Reference registration (untimed) pins sizes and the schema text.
	refCtx, refFmt, err := w.BuildFormats(Paper)
	if err != nil {
		return row, err
	}
	row.StructSize = refFmt.Size
	row.LeafFields = refFmt.FieldCount()
	if sampleBinder != nil {
		if row.EncodedSize, err = sampleBinder(refCtx, refFmt); err != nil {
			return row, err
		}
	}
	schema := w.Schema
	if schema == "" {
		if schema, err = w.SchemaFor(Paper); err != nil {
			return row, err
		}
	}

	// Native path: compiled-in field lists into a fresh context.
	row.PBIONs, err = timeOp(o, func() error {
		ctx := pbio.NewContext(pbio.WithPlatform(Paper))
		for _, fs := range w.FieldSets {
			if _, err := ctx.RegisterFields(fs.Name, fs.Fields); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return row, err
	}

	// XMIT path: parse the XML description and register with PBIO (the
	// paper's Figure 3/6 definition; retrieval is excluded, as there).
	row.XMITNs, err = timeOp(o, func() error {
		tk := core.NewToolkit()
		if _, err := tk.LoadString(schema); err != nil {
			return err
		}
		ctx := pbio.NewContext(pbio.WithPlatform(Paper))
		_, err := tk.Register(w.Name, ctx)
		return err
	})
	if err != nil {
		return row, err
	}
	row.RDM = row.XMITNs / row.PBIONs
	return row, nil
}

// Fig3 measures format registration costs for the proof-of-concept
// structures (paper Figure 3: structure sizes 32 [72], 52 [104], 180 [268];
// RDM a small, roughly constant factor).
func Fig3(o Options) ([]RegRow, error) {
	var rows []RegRow
	for _, w := range PocWorkloads() {
		w := w
		row, err := runRegWorkload(o, w, func(ctx *pbio.Context, f *meta.Format) (int, error) {
			b, err := ctx.Bind(f, w.Sample)
			if err != nil {
				return 0, err
			}
			return b.EncodedSize(w.Sample)
		})
		if err != nil {
			return nil, err
		}
		if w.WantStructSize != 0 && row.StructSize != w.WantStructSize {
			return nil, fmt.Errorf("bench: %s struct size %d, want %d", w.Name, row.StructSize, w.WantStructSize)
		}
		if w.WantEncodedSize != 0 && row.EncodedSize != w.WantEncodedSize {
			return nil, fmt.Errorf("bench: %s encoded size %d, want %d", w.Name, row.EncodedSize, w.WantEncodedSize)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// HydroWorkloads derives registration workloads for the four Hydrology
// application formats (paper Figure 6: 12, 20, 44, 152 bytes), ordered as
// the figure plots them.
func HydroWorkloads() ([]RegWorkload, error) {
	tk := core.NewToolkit()
	if _, err := tk.LoadString(hydro.SchemaDocument); err != nil {
		return nil, err
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
		out = append(out, RegWorkload{Name: name, FieldSets: fieldSets, Schema: s.String()})
	}
	return out, nil
}

// HydroSamples returns representative values whose encoded sizes the
// harness reports alongside Figure 6/7 rows.
func HydroSamples() map[string]any {
	big, _ := NewPayload(262176) // the 262176-byte frame of Figure 7
	return map[string]any{
		"SimpleData":  &hydro.SimpleData{Timestep: 42, Data: big.Values[:65541]},
		"JoinRequest": &hydro.JoinRequest{Name: pad("vis5d-client", 24), Server: 1, IPAddr: 0x0a000001, Pid: 777, DsAddr: 0x8000},
		"ControlMsg":  &hydro.ControlMsg{Command: hydro.CmdSetView, Zoom: 2, RefreshRate: 30},
		"GridMeta":    &hydro.GridMeta{Nx: 256, Ny: 256, HMax: 2.5, Checksum: 0x1234},
	}
}

// Fig6 measures registration costs for the Hydrology formats (paper
// Figure 6: RDM 2.11–4, worst for the primitive-heavy 152-byte GridMeta).
func Fig6(o Options) ([]RegRow, error) {
	ws, err := HydroWorkloads()
	if err != nil {
		return nil, err
	}
	samples := HydroSamples()
	var rows []RegRow
	for _, w := range ws {
		w := w
		sample := samples[w.Name]
		row, err := runRegWorkload(o, w, func(ctx *pbio.Context, f *meta.Format) (int, error) {
			b, err := ctx.Bind(f, sample)
			if err != nil {
				return 0, err
			}
			return b.EncodedSize(sample)
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// EncRow is one point of Figure 7: marshal time using native metadata
// versus XMIT-generated metadata.
type EncRow struct {
	Name        string
	EncodedSize int
	NativeNs    float64
	XMITNs      float64
	Ratio       float64 // XMIT / native; the paper shows ~1.0
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
	samples := HydroSamples()
	var rows []EncRow
	for _, w := range ws {
		sample := samples[w.Name]

		// Native metadata.
		nativeCtx, nativeFmt, err := w.BuildFormats(Paper)
		if err != nil {
			return nil, err
		}
		nb, err := nativeCtx.Bind(nativeFmt, sample)
		if err != nil {
			return nil, err
		}
		// XMIT metadata, in its own context.
		tk := core.NewToolkit()
		if _, err := tk.LoadString(w.Schema); err != nil {
			return nil, err
		}
		xmitCtx := pbio.NewContext(pbio.WithPlatform(Paper))
		tok, err := tk.Register(w.Name, xmitCtx)
		if err != nil {
			return nil, err
		}
		xb, err := xmitCtx.Bind(tok.Format, sample)
		if err != nil {
			return nil, err
		}

		row := EncRow{Name: w.Name}
		if row.EncodedSize, err = nb.EncodedSize(sample); err != nil {
			return nil, err
		}
		buf := make([]byte, 0, row.EncodedSize+64)
		if row.NativeNs, err = timeOp(o, func() error {
			_, err := nb.EncodeBody(buf[:0], sample)
			return err
		}); err != nil {
			return nil, err
		}
		if row.XMITNs, err = timeOp(o, func() error {
			_, err := xb.EncodeBody(buf[:0], sample)
			return err
		}); err != nil {
			return nil, err
		}
		row.Ratio = row.XMITNs / row.NativeNs
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig8Row is one message size of Figure 8: send-side encode times for each
// binary communication mechanism plus the XML wire format, against the
// floor of a plain copy of PBIO's encoded bytes (MemcpyNs).
type Fig8Row struct {
	PayloadBytes int
	MemcpyNs     float64
	PBIONs       float64
	MPINs        float64
	CDRNs        float64
	XDRNs        float64
	XMLNs        float64
}

// Fig8 measures send-side encode times for 100 B – 100 KB messages across
// PBIO, MPI (MPICH stand-in), CDR (CORBA stand-in), XDR, and XML text
// (paper Figure 8: PBIO fastest; MPI ~10x; XML orders of magnitude slower).
func Fig8(o Options) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, size := range PayloadSizes {
		payload, err := NewPayload(size)
		if err != nil {
			return nil, err
		}
		n := len(payload.Values)

		ctx := pbio.NewContext(pbio.WithPlatform(Paper))
		dynFmt, err := ctx.RegisterFields("Payload", PayloadFields())
		if err != nil {
			return nil, err
		}
		statFmt, err := ctx.RegisterFields("PayloadStatic", StaticPayloadFields(n))
		if err != nil {
			return nil, err
		}

		pb, err := ctx.Bind(dynFmt, payload)
		if err != nil {
			return nil, err
		}
		cdrCodec, err := cdr.NewCodec(dynFmt, payload)
		if err != nil {
			return nil, err
		}
		xdrCodec, err := xdr.NewCodec(dynFmt, payload)
		if err != nil {
			return nil, err
		}
		xmlCodec, err := xmlwire.NewCodec(dynFmt, payload)
		if err != nil {
			return nil, err
		}
		mpiType, err := mpidt.FromFormat(statFmt)
		if err != nil {
			return nil, err
		}
		// The MPI sender packs from the application's native memory
		// image (built once; producing it is not part of MPI_Pack).
		sb, err := ctx.Bind(statFmt, payload)
		if err != nil {
			return nil, err
		}
		mem, err := sb.EncodeBody(nil, payload)
		if err != nil {
			return nil, err
		}
		memOrder := orderOf(Paper)

		row := Fig8Row{PayloadBytes: size}
		buf := make([]byte, 0, size*12)
		body, err := pb.EncodeBody(nil, payload)
		if err != nil {
			return nil, err
		}
		if row.MemcpyNs, err = timeOp(o, func() error {
			copy(buf[:len(body)], body)
			return nil
		}); err != nil {
			return nil, err
		}
		if row.PBIONs, err = timeOp(o, func() error {
			_, err := pb.EncodeBody(buf[:0], payload)
			return err
		}); err != nil {
			return nil, err
		}
		if row.MPINs, err = timeOp(o, func() error {
			_, err := mpidt.Pack(mem, memOrder, 1, mpiType, buf[:0])
			return err
		}); err != nil {
			return nil, err
		}
		if row.CDRNs, err = timeOp(o, func() error {
			_, err := cdrCodec.Encode(buf[:0], payload)
			return err
		}); err != nil {
			return nil, err
		}
		if row.XDRNs, err = timeOp(o, func() error {
			_, err := xdrCodec.Encode(buf[:0], payload)
			return err
		}); err != nil {
			return nil, err
		}
		if row.XMLNs, err = timeOp(o, func() error {
			_, err := xmlCodec.Encode(buf[:0], payload)
			return err
		}); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func orderOf(p *platform.Platform) binary.ByteOrder {
	if p.BigEndian() {
		return binary.BigEndian
	}
	return binary.LittleEndian
}

// Fig1Result reproduces the Figure 1 discussion: the XML encoding of a
// SimpleData message is ~3x the binary size, and an XML-based exchange
// sees about twice the latency of the XMIT/PBIO exchange.
type Fig1Result struct {
	Elements     int
	BinaryBytes  int
	XMLBytes     int
	Expansion    float64
	BinaryRTTNs  float64 // measured loopback round trip (encode+tcp+decode both ways)
	XMLRTTNs     float64
	LatencyRatio float64 // XML / binary, loopback
	// Modelled end-to-end one-way latencies on the paper's era network
	// (100 Mbit/s): processing (half the measured RTT) plus wire time.
	ModelBinaryNs float64
	ModelXMLNs    float64
	ModelRatio    float64
}

const modelBitsPerSecond = 100e6

// Fig1 measures message sizes and round-trip latency for the SimpleData
// exchange of Figure 1 (3355 floats), binary versus XML wire format.
func Fig1(o Options) (*Fig1Result, error) {
	ctx := pbio.NewContext(pbio.WithPlatform(Paper))
	f, err := ctx.RegisterFields("SimpleData", []pbio.IOField{
		{Name: "timestep", Type: "integer"},
		{Name: "size", Type: "integer"},
		{Name: "data", Type: "float[size]"},
	})
	if err != nil {
		return nil, err
	}
	msg := &hydro.SimpleData{Timestep: 9999, Data: make([]float32, 3355)}
	for i := range msg.Data {
		msg.Data[i] = 12.345
	}
	b, err := ctx.Bind(f, msg)
	if err != nil {
		return nil, err
	}
	xmlCodec, err := xmlwire.NewCodec(f, msg)
	if err != nil {
		return nil, err
	}

	res := &Fig1Result{Elements: len(msg.Data)}
	bin, err := b.EncodeBody(nil, msg)
	if err != nil {
		return nil, err
	}
	res.BinaryBytes = len(bin)
	xml, err := xmlCodec.Encode(nil, msg)
	if err != nil {
		return nil, err
	}
	res.XMLBytes = len(xml)
	res.Expansion = xmlwire.ExpansionFactor(res.XMLBytes, res.BinaryBytes)

	// Round trips over TCP loopback: the peer decodes and re-encodes, as
	// the Hydrology components do.
	res.BinaryRTTNs, err = measureRTT(o, func(dst []byte, v *hydro.SimpleData) ([]byte, error) {
		return b.EncodeBody(dst, v)
	}, func(data []byte, v *hydro.SimpleData) error {
		return ctx.DecodeBody(f, data, v)
	}, msg)
	if err != nil {
		return nil, err
	}
	res.XMLRTTNs, err = measureRTT(o, func(dst []byte, v *hydro.SimpleData) ([]byte, error) {
		return xmlCodec.Encode(dst, v)
	}, func(data []byte, v *hydro.SimpleData) error {
		return xmlCodec.Decode(data, v)
	}, msg)
	if err != nil {
		return nil, err
	}
	res.LatencyRatio = res.XMLRTTNs / res.BinaryRTTNs

	res.ModelBinaryNs = res.BinaryRTTNs/2 + float64(res.BinaryBytes)*8/modelBitsPerSecond*1e9
	res.ModelXMLNs = res.XMLRTTNs/2 + float64(res.XMLBytes)*8/modelBitsPerSecond*1e9
	res.ModelRatio = res.ModelXMLNs / res.ModelBinaryNs
	return res, nil
}

// measureRTT runs an echo exchange over TCP loopback: encode, send, peer
// decodes and re-encodes, sends back, client decodes.
func measureRTT(o Options,
	encode func([]byte, *hydro.SimpleData) ([]byte, error),
	decode func([]byte, *hydro.SimpleData) error,
	msg *hydro.SimpleData) (float64, error) {

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	serverErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			serverErr <- err
			return
		}
		defer conn.Close()
		var in hydro.SimpleData
		var out []byte
		for {
			payload, err := readLenFrame(conn)
			if err != nil {
				serverErr <- nil // client closed
				return
			}
			if err := decode(payload, &in); err != nil {
				serverErr <- err
				return
			}
			if out, err = encode(out[:0], &in); err != nil {
				serverErr <- err
				return
			}
			if err := writeLenFrame(conn, out); err != nil {
				serverErr <- err
				return
			}
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()

	var out []byte
	var back hydro.SimpleData
	rtt, err := timeOp(o, func() error {
		var err error
		if out, err = encode(out[:0], msg); err != nil {
			return err
		}
		if err := writeLenFrame(conn, out); err != nil {
			return err
		}
		payload, err := readLenFrame(conn)
		if err != nil {
			return err
		}
		return decode(payload, &back)
	})
	conn.Close()
	if err != nil {
		return 0, err
	}
	if serr := <-serverErr; serr != nil {
		return 0, serr
	}
	return rtt, nil
}

func writeLenFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readLenFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > 64<<20 {
		return nil, fmt.Errorf("bench: frame of %d bytes", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
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
// for field-rich records).
func Expansion() ([]ExpansionRow, error) {
	var rows []ExpansionRow

	add := func(name string, f *meta.Format, ctx *pbio.Context, sample any) error {
		b, err := ctx.Bind(f, sample)
		if err != nil {
			return err
		}
		bin, err := b.EncodeBody(nil, sample)
		if err != nil {
			return err
		}
		codec, err := xmlwire.NewCodec(f, sample)
		if err != nil {
			return err
		}
		x, err := codec.Encode(nil, sample)
		if err != nil {
			return err
		}
		rows = append(rows, ExpansionRow{
			Name: name, BinaryBytes: len(bin), XMLBytes: len(x),
			Factor: xmlwire.ExpansionFactor(len(x), len(bin)),
		})
		return nil
	}

	// Hydrology formats with representative values.
	tk := core.NewToolkit()
	if _, err := tk.LoadString(hydro.SchemaDocument); err != nil {
		return nil, err
	}
	ctx := pbio.NewContext(pbio.WithPlatform(Paper))
	samples := HydroSamples()
	small := &hydro.SimpleData{Timestep: 3, Data: []float32{12.345, 6.125, -3.5}}
	for _, name := range hydro.FormatNames {
		tok, err := tk.Register(name, ctx)
		if err != nil {
			return nil, err
		}
		if err := add(name, tok.Format, ctx, samples[name]); err != nil {
			return nil, err
		}
		if name == "SimpleData" {
			if err := add("SimpleData(small)", tok.Format, ctx, small); err != nil {
				return nil, err
			}
		}
	}
	// The field-rich proof-of-concept record.
	for _, w := range PocWorkloads() {
		if w.Name != "Poc52" {
			continue
		}
		pctx, pf, err := w.BuildFormats(Paper)
		if err != nil {
			return nil, err
		}
		if err := add(w.Name, pf, pctx, w.Sample); err != nil {
			return nil, err
		}
	}
	return rows, nil
}
