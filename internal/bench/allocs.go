package bench

import (
	"io"
	"reflect"
	"testing"

	"github.com/open-metadata/xmit/internal/hydro"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/transport"
)

// AllocRow is one operation of the allocation experiment: steady-state heap
// allocations per message on the pooled PBIO hot path, alongside its time.
// The pooled encode, size, decode, and transport-send paths all report 0
// once bindings and plans are warm.
type AllocRow struct {
	Workload    string
	Op          string
	NsPerOp     float64
	AllocsPerOp float64
}

// discardRWC swallows writes so transport-send rows measure marshaling and
// framing without a peer.
type discardRWC struct{}

func (discardRWC) Read(p []byte) (int, error)  { return 0, io.EOF }
func (discardRWC) Write(p []byte) (int, error) { return len(p), nil }
func (discardRWC) Close() error                { return nil }

// measureAlloc appends one row combining measure's timing with
// testing.AllocsPerRun (which is usable outside a test binary).
func measureAlloc(o Options, rows *[]AllocRow, workload, op string, fn func() error) error {
	t, err := measure(o, []Op{{Name: workload + "/" + op, Run: fn}})
	if err != nil {
		return err
	}
	var innerErr error
	allocs := testing.AllocsPerRun(100, func() {
		if err := fn(); err != nil && innerErr == nil {
			innerErr = err
		}
	})
	if innerErr != nil {
		return innerErr
	}
	*rows = append(*rows, AllocRow{Workload: workload, Op: op, NsPerOp: t.Ns(0), AllocsPerOp: allocs})
	return nil
}

// allocWorkload measures encode/size/decode/send for one bound sample.
func allocWorkload(o Options, rows *[]AllocRow, name string, ctx *pbio.Context, b *pbio.Binding, sample any) error {
	buf := pbio.GetBuffer()
	defer buf.Release()
	var err error
	if buf.B, err = b.EncodeTo(buf.B, sample); err != nil {
		return err
	}
	body, err := b.EncodeBody(nil, sample)
	if err != nil {
		return err
	}
	out := cloneZero(sample)
	if err := ctx.DecodeBody(b.Format(), body, out); err != nil {
		return err
	}
	if err := measureAlloc(o, rows, name, "EncodeTo", func() error {
		var err error
		buf.B, err = b.EncodeTo(buf.B, sample)
		return err
	}); err != nil {
		return err
	}
	if err := measureAlloc(o, rows, name, "EncodedSize", func() error {
		_, err := b.EncodedSize(sample)
		return err
	}); err != nil {
		return err
	}
	if err := measureAlloc(o, rows, name, "DecodeBody", func() error {
		return ctx.DecodeBody(b.Format(), body, out)
	}); err != nil {
		return err
	}

	conn := transport.NewConn(discardRWC{}, ctx)
	if err := conn.Send(b, sample); err != nil { // announce before measuring
		return err
	}
	return measureAlloc(o, rows, name, "Send", func() error {
		return conn.Send(b, sample)
	})
}

// Allocs measures steady-state allocations per message across the mixed
// proof-of-concept records and a dynamic-array payload — the tentpole claim
// of the zero-allocation hot path, as a reportable experiment.
func Allocs(o Options) ([]AllocRow, error) {
	var rows []AllocRow

	for _, w := range PocWorkloads() {
		ctx, f, err := w.BuildFormats(Paper)
		if err != nil {
			return nil, err
		}
		b, err := ctx.Bind(f, w.Sample)
		if err != nil {
			return nil, err
		}
		if err := allocWorkload(o, &rows, w.Name, ctx, b, w.Sample); err != nil {
			return nil, err
		}
	}

	ctx := pbio.NewContext(pbio.WithPlatform(Paper))
	f, err := ctx.RegisterFields("SimpleData", []pbio.IOField{
		{Name: "timestep", Type: "integer"},
		{Name: "size", Type: "integer"},
		{Name: "data", Type: "float[size]"},
	})
	if err != nil {
		return nil, err
	}
	sample := &hydro.SimpleData{Timestep: 42, Data: make([]float32, 1000)}
	for i := range sample.Data {
		sample.Data[i] = float32(i) * 0.5
	}
	b, err := ctx.Bind(f, sample)
	if err != nil {
		return nil, err
	}
	if err := allocWorkload(o, &rows, "SimpleData(4KB)", ctx, b, sample); err != nil {
		return nil, err
	}
	return rows, nil
}

// cloneZero returns a fresh zero value of the struct sample points to, for
// decoding into (warmed once, then reused).
func cloneZero(sample any) any {
	return reflect.New(reflect.TypeOf(sample).Elem()).Interface()
}
