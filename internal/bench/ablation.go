package bench

import (
	"fmt"
	"io"

	"github.com/open-metadata/xmit/internal/core"
	"github.com/open-metadata/xmit/internal/dom"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/xsd"
)

// The ablations quantify the design choices DESIGN.md calls out: where the
// Remote Discovery Multiplier actually comes from (stage breakdown and the
// XML parser), what receiver-makes-right conversion costs when it has real
// work to do (byte swapping), and what the block-move array kernels are
// worth.

// StageRow decomposes one XMIT registration into its pipeline stages.  The
// schema stage is timed three ways: the translation XMIT runs, straight off
// the tokenizer, and the two element-tree parses it replaced, which cost
// more before any definition is extracted.
type StageRow struct {
	Name        string
	ParseFastNs float64 // dom tree parse, the tokenizer (dom.ParseBytes)
	ParseStdNs  float64 // dom tree parse, encoding/xml (dom.ParseStd)
	StreamNs    float64 // schema translation off the tokens (xsd.ParseBytes)
	TranslateNs float64 // XSD -> native metadata (GenerateFormat)
	RegisterNs  float64 // first-sight validation + canonicalisation + hashing + install
}

// AblationRegistrationStages measures each stage of the XMIT registration
// pipeline per workload.
func AblationRegistrationStages(o Options) ([]StageRow, error) {
	ws := PocWorkloads()
	hw, err := HydroWorkloads()
	if err != nil {
		return nil, err
	}
	ws = append(ws, hw...)
	var rows []StageRow
	for _, w := range ws {
		schema := w.Schema
		if schema == "" {
			if schema, err = w.SchemaFor(Paper); err != nil {
				return nil, err
			}
		}
		data := []byte(schema)
		tk := core.NewToolkit()
		if _, err := tk.LoadString(schema); err != nil {
			return nil, err
		}
		f, err := tk.GenerateFormat(w.Name, Paper)
		if err != nil {
			return nil, err
		}
		t, err := measure(o, []Op{
			{Name: "tree-fast", Run: func() error {
				_, err := dom.ParseBytes(data)
				return err
			}},
			{Name: "tree-std", Run: func() error {
				_, err := dom.ParseStdString(schema)
				return err
			}},
			{Name: "xsd-stream", Run: func() error {
				_, err := xsd.ParseBytes(data)
				return err
			}},
			{Name: "translate", Run: func() error {
				_, err := tk.GenerateFormat(w.Name, Paper)
				return err
			}},
			// A first-sight registration: each call registers a by-value
			// copy of the generated format, which does not inherit the
			// original's memoised ID, so every call pays for the canonical
			// serialisation and its hash.
			{Name: "register", Run: func() error {
				fresh := *f
				_, err := pbio.NewContext(pbio.WithPlatform(Paper)).RegisterFormat(&fresh)
				return err
			}},
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, StageRow{Name: w.Name, ParseFastNs: t.Ns(0), ParseStdNs: t.Ns(1),
			StreamNs: t.Ns(2), TranslateNs: t.Ns(3), RegisterNs: t.Ns(4)})
	}
	return rows, nil
}

// ConvRow compares receiver-side decode cost when the wire layout matches
// the receiver's byte order versus when every scalar must be swapped.
type ConvRow struct {
	PayloadBytes    int
	HomogeneousNs   float64 // little-endian wire on a little-endian host
	HeterogeneousNs float64 // big-endian wire (sparc32) on the same host
	SwapPenalty     float64 // heterogeneous / homogeneous
}

// AblationConversion measures the real price of receiver-makes-right: the
// same logical message decoded from a same-order layout and from a
// swapped-order layout.
func AblationConversion(o Options) ([]ConvRow, error) {
	var rows []ConvRow
	for _, size := range PayloadSizes {
		payload, err := NewPayload(size)
		if err != nil {
			return nil, err
		}
		var ops []Op
		for _, p := range []*platform.Platform{platform.X8664, platform.Sparc32} {
			ctx := pbio.NewContext(pbio.WithPlatform(p))
			f, err := ctx.RegisterFields("Payload", PayloadFields())
			if err != nil {
				return nil, err
			}
			b, err := ctx.Bind(f, payload)
			if err != nil {
				return nil, err
			}
			body, err := b.EncodeBody(nil, payload)
			if err != nil {
				return nil, err
			}
			var out Payload
			ops = append(ops, Op{Name: p.Name, Run: func() error { return ctx.DecodeBody(f, body, &out) }})
		}
		t, err := measure(o, ops)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ConvRow{PayloadBytes: size, HomogeneousNs: t.Ns(0),
			HeterogeneousNs: t.Ns(1), SwapPenalty: t.Ratio(1, 0)})
	}
	return rows, nil
}

// genericPayload holds its values as float64 against the wire's 4-byte
// floats: a width change, which the encoder leaves to the reflect element
// loop.  The wire bytes are Payload's.
type genericPayload struct {
	Seq    int32
	Count  int32
	Values []float64
}

// FastPathRow compares the block-move array kernel against the generic
// reflect element loop.
type FastPathRow struct {
	PayloadBytes int
	FastNs       float64
	GenericNs    float64
	Speedup      float64
}

// AblationFastPaths measures what the block-move array kernels contribute
// to PBIO's encode speed.
func AblationFastPaths(o Options) ([]FastPathRow, error) {
	var rows []FastPathRow
	for _, size := range PayloadSizes {
		payload, err := NewPayload(size)
		if err != nil {
			return nil, err
		}
		gp := &genericPayload{Seq: payload.Seq, Count: payload.Count, Values: make([]float64, len(payload.Values))}
		for i, v := range payload.Values {
			gp.Values[i] = float64(v)
		}
		ctx := pbio.NewContext(pbio.WithPlatform(Paper))
		f, err := ctx.RegisterFields("Payload", PayloadFields())
		if err != nil {
			return nil, err
		}
		fb, err := ctx.Bind(f, payload)
		if err != nil {
			return nil, err
		}
		gb, err := ctx.Bind(f, gp)
		if err != nil {
			return nil, err
		}
		var buf []byte
		t, err := measure(o, []Op{
			{Name: "block-move", Run: func() (err error) {
				buf, err = fb.EncodeBody(buf[:0], payload)
				return err
			}},
			{Name: "reflect-loop", Run: func() (err error) {
				buf, err = gb.EncodeBody(buf[:0], gp)
				return err
			}},
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, FastPathRow{PayloadBytes: size, FastNs: t.Ns(0), GenericNs: t.Ns(1), Speedup: t.Ratio(1, 0)})
	}
	return rows, nil
}

// PrintAblations renders all three ablation tables.
func PrintAblations(w io.Writer, stages []StageRow, conv []ConvRow, fast []FastPathRow) {
	fmt.Fprintf(w, "Ablation A: XMIT registration stage breakdown (ms)\n")
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s %10s %14s\n",
		"format", "tree-fast", "tree-std", "xsd-stream", "translate", "register", "parser speedup")
	for _, r := range stages {
		fmt.Fprintf(w, "%-12s %12.4f %12.4f %12.4f %12.4f %10.4f %13.1fx\n",
			r.Name, ms(r.ParseFastNs), ms(r.ParseStdNs), ms(r.StreamNs),
			ms(r.TranslateNs), ms(r.RegisterNs), r.ParseStdNs/r.ParseFastNs)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Ablation B: receiver-makes-right conversion cost (decode, ms)\n")
	fmt.Fprintf(w, "%12s %14s %16s %12s\n", "size (B)", "same order", "swapped order", "penalty")
	for _, r := range conv {
		fmt.Fprintf(w, "%12d %14.5f %16.5f %11.2fx\n",
			r.PayloadBytes, ms(r.HomogeneousNs), ms(r.HeterogeneousNs), r.SwapPenalty)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Ablation C: block-move array kernels (encode, ms)\n")
	fmt.Fprintf(w, "%12s %12s %14s %12s\n", "size (B)", "block move", "reflect loop", "speedup")
	for _, r := range fast {
		fmt.Fprintf(w, "%12d %12.5f %14.5f %11.2fx\n",
			r.PayloadBytes, ms(r.FastNs), ms(r.GenericNs), r.Speedup)
	}
}
