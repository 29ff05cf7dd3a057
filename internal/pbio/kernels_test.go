package pbio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/open-metadata/xmit/internal/platform"
)

// Celsius is a named element type: the block kernels select on kind and
// width, not on the exact Go type.
type Celsius float64

// arrayOf is a one-field event whose dynamic array length is synthesized.
type arrayOf[T any] struct {
	V []T `xmit:"v"`
}

// elemType ties a Go element type to its PBIO type string and its raw bits.
type elemType[T any] struct {
	pbio string
	size int
	from func(uint64) T
	bits func(T) uint64
}

var kernelLengths = func() []int {
	var ns []int
	for n := 0; n <= 17; n++ {
		ns = append(ns, n)
	}
	return append(ns, 63, 64, 65, 12500)
}()

// refPut is the per-element loop the kernels replaced, kept as their
// oracle: the wire image of raw element bits in the given byte order.
func refPut(order binary.ByteOrder, size int, raw []uint64) []byte {
	out := make([]byte, size*len(raw))
	for k, b := range raw {
		if size == 8 {
			order.PutUint64(out[8*k:], b)
		} else {
			order.PutUint32(out[4*k:], uint32(b))
		}
	}
	return out
}

// rawPatterns returns n deterministic size-byte bit patterns, every fifth a
// NaN with a payload (signalling and quiet alternately) so float lanes
// must move bits, not values.
func rawPatterns(n, size int) []uint64 {
	nans := [2][2]uint64{{0x7F800001, 0xFFC00123}, {0x7FF0000000000001, 0xFFF8000000000123}}
	raw := make([]uint64, n)
	x := uint64(0x9E3779B97F4A7C15)
	for k := range raw {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		raw[k] = x
		if k%5 == 0 {
			raw[k] = nans[size/8][k/5%2]
		}
		if size == 4 {
			raw[k] &= math.MaxUint32
		}
	}
	return raw
}

// checkKernelType encodes and decodes every length in kernelLengths in both
// wire orders, through the public API with the wire array at an odd
// address, and compares against refPut and the input bits.
func checkKernelType[T any](t *testing.T, et elemType[T]) {
	for _, plat := range []*platform.Platform{platform.X8664, platform.Sparc64} {
		c := NewContext(WithPlatform(plat))
		f, err := c.RegisterFields("arr", []IOField{{Name: "n", Type: "integer"}, {Name: "v", Type: et.pbio + "[n]"}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Bind(f, &arrayOf[T]{})
		if err != nil {
			t.Fatal(err)
		}
		if !b.prog.ops[1].block {
			t.Fatalf("%s %T on %s: encode op not a block move", et.pbio, *new(T), plat.Name)
		}
		var order binary.ByteOrder = binary.LittleEndian
		if f.BigEndian {
			order = binary.BigEndian
		}
		for _, n := range kernelLengths {
			raw := rawPatterns(n, et.size)
			in := arrayOf[T]{V: make([]T, n)}
			for k := range in.V {
				in.V[k] = et.from(raw[k])
			}
			msg, err := b.EncodeBody([]byte{0xEE}, &in) // body starts at an odd offset
			if err != nil {
				t.Fatal(err)
			}
			body := msg[1:]
			if got, want := body[f.Size:], refPut(order, et.size, raw); !bytes.Equal(got, want) {
				t.Fatalf("%s %s n=%d: wire bytes differ from the per-element reference", et.pbio, plat.Name, n)
			}
			var out arrayOf[T]
			if err := c.DecodeBody(f, body, &out); err != nil {
				t.Fatal(err)
			}
			if len(out.V) != n {
				t.Fatalf("%s %s n=%d: decoded %d elements", et.pbio, plat.Name, n, len(out.V))
			}
			for k, v := range out.V {
				if et.bits(v) != raw[k] {
					t.Fatalf("%s %s n=%d: element %d = %#x, want %#x", et.pbio, plat.Name, n, k, et.bits(v), raw[k])
				}
			}
		}
	}
}

// TestArrayKernelsMatchReference: every block-move element type, both wire
// orders (one a copy on this host, the other a swap), lengths around the
// 8-element block edge and the stream_large size.
func TestArrayKernelsMatchReference(t *testing.T) {
	checkKernelType(t, elemType[int32]{"integer(4)", 4,
		func(b uint64) int32 { return int32(b) }, func(x int32) uint64 { return uint64(uint32(x)) }})
	checkKernelType(t, elemType[int64]{"integer(8)", 8,
		func(b uint64) int64 { return int64(b) }, func(x int64) uint64 { return uint64(x) }})
	checkKernelType(t, elemType[uint32]{"unsigned(4)", 4,
		func(b uint64) uint32 { return uint32(b) }, func(x uint32) uint64 { return uint64(x) }})
	checkKernelType(t, elemType[uint64]{"unsigned(8)", 8,
		func(b uint64) uint64 { return b }, func(x uint64) uint64 { return x }})
	checkKernelType(t, elemType[float32]{"float", 4,
		func(b uint64) float32 { return math.Float32frombits(uint32(b)) },
		func(x float32) uint64 { return uint64(math.Float32bits(x)) }})
	checkKernelType(t, elemType[float64]{"double", 8,
		math.Float64frombits, math.Float64bits})
	checkKernelType(t, elemType[Celsius]{"double", 8,
		func(b uint64) Celsius { return Celsius(math.Float64frombits(b)) },
		func(x Celsius) uint64 { return math.Float64bits(float64(x)) }})
}

// TestArrayKernelsReflectPath: bools, enums and width changes are not block
// moves, and still convert element by element — a wire bool byte of 2 is
// true, a wire int32 sign-extends into a Go int, a wire double narrows
// into a Go float32.
func TestArrayKernelsReflectPath(t *testing.T) {
	type mixed struct {
		N     int32
		Flags []bool
		Modes []int32
		Wide  []int
		Thin  []float32
		Stat  [3]bool
	}
	c := NewContext(WithPlatform(platform.Sparc64))
	f, err := c.RegisterFields("mixed", []IOField{
		{Name: "n", Type: "integer"},
		{Name: "flags", Type: "boolean[n]"},
		{Name: "modes", Type: "enumeration[n]"},
		{Name: "wide", Type: "integer(4)[n]"},
		{Name: "thin", Type: "double[n]"},
		{Name: "stat", Type: "boolean[3]"},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := mixed{N: 2, Flags: []bool{true, false}, Modes: []int32{3, 9}, Wide: []int{-5, 7},
		Thin: []float32{1.5, -0.25}, Stat: [3]bool{false, true, false}}
	b, err := c.Bind(f, &in)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.decodePlan(f, reflect.TypeOf(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(f.Fields); i++ {
		if b.prog.ops[i].block || plan.ops[i].block {
			t.Errorf("field %s: block move, want the reflect loop", f.Fields[i].Name)
		}
	}
	body, err := b.EncodeBody(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	// Every non-zero wire bool byte decodes to true.
	flagsOff := int(binary.BigEndian.Uint64(body[f.Fields[1].Offset:]))
	body[flagsOff+1] = 2
	body[f.Fields[5].Offset] = 2
	var out mixed
	if err := c.DecodeBody(f, body, &out); err != nil {
		t.Fatal(err)
	}
	want := in
	want.Flags = []bool{true, true}
	want.Stat[0] = true
	if fmt.Sprint(out) != fmt.Sprint(want) {
		t.Errorf("decoded %+v, want %+v", out, want)
	}
}

// TestEncodeNoPreZero pins the no-pre-zero rule: encoding into a pooled
// buffer whose bytes are all 0xA5 yields exactly the fresh encode, so every
// byte a block move does not overwrite is still zeroed by someone.
func TestEncodeNoPreZero(t *testing.T) {
	check := func(name string, b *Binding, v any) {
		t.Helper()
		fresh, err := b.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		buf := GetBuffer()
		defer buf.Release()
		buf.B = append(buf.B[:0], bytes.Repeat([]byte{0xA5}, 2*len(fresh))...)
		got, err := b.EncodeTo(buf.B, v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fresh) {
			t.Errorf("%s: encode into a dirty buffer differs from a fresh encode", name)
		}
	}
	for _, plat := range []*platform.Platform{platform.X8664, platform.Sparc32} {
		c := NewContext(WithPlatform(plat))
		f, err := c.RegisterFields("kitchen", kitchenFields(c))
		if err != nil {
			t.Fatal(err)
		}
		in := kitchenValue()
		b, err := c.Bind(f, &in)
		if err != nil {
			t.Fatal(err)
		}
		check("kitchen/"+plat.Name, b, &in)

		big, bigBind := bigDoubles(t, plat)
		check("12500 doubles/"+plat.Name, bigBind, big)
	}
}

// bigDoubles binds the stream_large shape — 12 500 doubles — on plat.
func bigDoubles(t testing.TB, plat *platform.Platform) (*arrayOf[float64], *Binding) {
	c := NewContext(WithPlatform(plat))
	f, err := c.RegisterFields("block", []IOField{{Name: "n", Type: "integer"}, {Name: "v", Type: "double[n]"}})
	if err != nil {
		t.Fatal(err)
	}
	in := &arrayOf[float64]{V: make([]float64, 12500)}
	for k := range in.V {
		in.V[k] = float64(k) * 0.5
	}
	b, err := c.Bind(f, in)
	if err != nil {
		t.Fatal(err)
	}
	return in, b
}

// TestArrayKernelsAllocFree: the 0-allocs/op gates at 12 500 doubles, same
// order (copy) and cross order (swap), encode and decode.
func TestArrayKernelsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates measure the race detector, not the code")
	}
	for _, plat := range []*platform.Platform{platform.X8664, platform.Sparc64} {
		in, b := bigDoubles(t, plat)
		dst, err := b.EncodeTo(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() { dst, _ = b.EncodeTo(dst, in) }); n != 0 {
			t.Errorf("%s EncodeTo: %v allocs/op, want 0", plat.Name, n)
		}
		var out arrayOf[float64]
		if err := b.ctx.DecodeBody(b.format, dst[HeaderSize:], &out); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() { _ = b.ctx.DecodeBody(b.format, dst[HeaderSize:], &out) }); n != 0 {
			t.Errorf("%s DecodeBody: %v allocs/op, want 0", plat.Name, n)
		}
		if !reflect.DeepEqual(out.V, in.V) {
			t.Errorf("%s: 12500 doubles did not round-trip", plat.Name)
		}
	}
}

// FuzzArrayKernels drives the kernels directly with arbitrary wire bytes at
// an arbitrary alignment: getBlock must equal the per-element reference
// decode, putBlock must reproduce the wire bytes, and neither may panic.
func FuzzArrayKernels(f *testing.F) {
	f.Add([]byte{}, uint8(0), true, true)
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 20), uint8(3), false, true)
	f.Add(bytes.Repeat([]byte{0x7F, 0xF0, 0, 0, 0, 0, 0, 1}, 17), uint8(1), true, false)
	f.Fuzz(func(t *testing.T, data []byte, skew uint8, wide, big bool) {
		wire := data[min(int(skew%8), len(data)):]
		size := 4
		if wide {
			size = 8
		}
		var order binary.ByteOrder = binary.LittleEndian
		if big {
			order = binary.BigEndian
		}
		n := len(wire) / size
		want := make([]uint64, n)
		for k := range want {
			if wide {
				want[k] = order.Uint64(wire[8*k:])
			} else {
				want[k] = uint64(order.Uint32(wire[4*k:]))
			}
		}
		var s any = make([]uint32, n)
		if wide {
			s = make([]uint64, n)
		}
		sv := reflect.ValueOf(s)
		if !getBlock(sv, wire, size, big) {
			t.Fatal("getBlock refused a slice")
		}
		for k := range want {
			if got := sv.Index(k).Uint(); got != want[k] {
				t.Fatalf("element %d = %#x, want %#x", k, got, want[k])
			}
		}
		out := make([]byte, 1+n*size)[1:] // odd address on the wire side
		if !putBlock(out, sv, size, big) {
			t.Fatal("putBlock refused a slice")
		}
		if !bytes.Equal(out, refPut(order, size, want)) {
			t.Fatal("putBlock differs from the per-element reference")
		}
	})
}
