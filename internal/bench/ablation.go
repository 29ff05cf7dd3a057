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
		row := StageRow{Name: w.Name}
		data := []byte(schema)
		if row.ParseFastNs, err = timeOp(o, func() error {
			_, err := dom.ParseBytes(data)
			return err
		}); err != nil {
			return nil, err
		}
		if row.ParseStdNs, err = timeOp(o, func() error {
			_, err := dom.ParseStdString(schema)
			return err
		}); err != nil {
			return nil, err
		}
		if row.StreamNs, err = timeOp(o, func() error {
			_, err := xsd.ParseBytes(data)
			return err
		}); err != nil {
			return nil, err
		}
		tk := core.NewToolkit()
		if _, err := tk.LoadString(schema); err != nil {
			return nil, err
		}
		if row.TranslateNs, err = timeOp(o, func() error {
			_, err := tk.GenerateFormat(w.Name, Paper)
			return err
		}); err != nil {
			return nil, err
		}
		f, err := tk.GenerateFormat(w.Name, Paper)
		if err != nil {
			return nil, err
		}
		// A first-sight registration: each iteration registers a by-value
		// copy of the generated format, which does not inherit the
		// original's memoised ID, so every iteration pays for the
		// canonical serialisation and its hash.
		if row.RegisterNs, err = timeOp(o, func() error {
			fresh := *f
			ctx := pbio.NewContext(pbio.WithPlatform(Paper))
			_, err := ctx.RegisterFormat(&fresh)
			return err
		}); err != nil {
			return nil, err
		}
		rows = append(rows, row)
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
		row := ConvRow{PayloadBytes: size}
		for i, p := range []*platform.Platform{platform.X8664, platform.Sparc32} {
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
			ns, err := timeOp(o, func() error {
				return ctx.DecodeBody(f, body, &out)
			})
			if err != nil {
				return nil, err
			}
			if i == 0 {
				row.HomogeneousNs = ns
			} else {
				row.HeterogeneousNs = ns
			}
		}
		row.SwapPenalty = row.HeterogeneousNs / row.HomogeneousNs
		rows = append(rows, row)
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
		buf := make([]byte, 0, size+64)
		row := FastPathRow{PayloadBytes: size}
		if row.FastNs, err = timeOp(o, func() error {
			_, err := fb.EncodeBody(buf[:0], payload)
			return err
		}); err != nil {
			return nil, err
		}
		if row.GenericNs, err = timeOp(o, func() error {
			_, err := gb.EncodeBody(buf[:0], gp)
			return err
		}); err != nil {
			return nil, err
		}
		row.Speedup = row.GenericNs / row.FastNs
		rows = append(rows, row)
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

// ablationNames guards against accidental drift between docs and code.
var ablationNames = []string{"registration-stages", "conversion", "fast-paths"}

// AblationNames lists the ablation identifiers.
func AblationNames() []string { return append([]string(nil), ablationNames...) }
