package pbio_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/registry"
)

// The projection tests hold pbio.Projection to its reference, the record
// path: DecodeRecordBody -> registry.Project -> EncodeRecordBody.  They live
// in the external test package because the reference sits above pbio.

type projPair struct {
	name     string
	src, dst *meta.Format
}

func mustBuild(t testing.TB, name string, p *platform.Platform, defs ...meta.FieldDef) *meta.Format {
	t.Helper()
	f, err := meta.Build(name, p, defs)
	if err != nil {
		t.Fatalf("building %s on %s: %v", name, p, err)
	}
	return f
}

func num(name string, kind meta.Kind, size int) meta.FieldDef {
	return meta.FieldDef{Name: name, Kind: kind, Class: platform.Int, ExplicitSize: size}
}

func static(d meta.FieldDef, dim int) meta.FieldDef { d.StaticDim = dim; return d }

func dyn(d meta.FieldDef, length string) meta.FieldDef { d.LengthField = length; return d }

func str(name string) meta.FieldDef { return meta.FieldDef{Name: name, Kind: meta.String} }

func rec(name string, sub *meta.Format) meta.FieldDef {
	return meta.FieldDef{Name: name, Kind: meta.Struct, Sub: sub}
}

// projectionPairs is the fixed corpus the differential test and the fuzzer
// share: every step kind, across byte order and pointer size, including the
// shape crossings only PolicyNone admits.
func projectionPairs(t testing.TB) []projPair {
	le, be := platform.X8664, platform.Sparc32

	point := func(p *platform.Platform, wide bool) *meta.Format {
		defs := []meta.FieldDef{num("x", meta.Integer, 2), str("tag"), num("ok", meta.Boolean, 1)}
		if wide {
			defs = []meta.FieldDef{
				num("x", meta.Integer, 8), str("tag"), num("ok", meta.Boolean, 4),
				num("k", meta.Integer, 2), dyn(num("w", meta.Float, 4), "k"), str("note"),
			}
		}
		return mustBuild(t, "point", p, defs...)
	}
	kitchen := func(p *platform.Platform, wide bool) *meta.Format {
		isz, fsz := 2, 4
		if wide {
			isz, fsz = 8, 8
		}
		defs := []meta.FieldDef{
			num("id", meta.Integer, isz),
			num("u", meta.Unsigned, isz),
			num("e", meta.Enum, 4),
			num("c", meta.Char, 1),
			num("b", meta.Boolean, isz),
			num("f", meta.Float, fsz),
			num("g", meta.Float, 4),
			str("name"),
			static(num("grid", meta.Integer, isz), 3),
			static(num("flags", meta.Boolean, 1), 2),
			num("n", meta.Integer, 2),
			dyn(num("xs", meta.Float, fsz), "n"),
			dyn(num("ys", meta.Unsigned, 1), "n"),
			rec("origin", point(p, wide)),
			static(rec("corners", point(p, wide)), 2),
			num("m", meta.Unsigned, 1),
			dyn(rec("path", point(p, wide)), "m"),
		}
		if wide {
			defs = append(defs,
				num("extra", meta.Integer, 8), str("comment"),
				num("z", meta.Integer, 2), dyn(num("zs", meta.Integer, 4), "z"),
				dyn(num("more", meta.Float, 8), "n"), // a second array on an old length field
			)
		}
		return mustBuild(t, "kitchen", p, defs...)
	}
	metric := func(p *platform.Platform, added int) *meta.Format {
		defs := []meta.FieldDef{
			num("seq", meta.Unsigned, 8), num("sum", meta.Unsigned, 8),
			num("value", meta.Float, 8), static(num("pad", meta.Integer, 4), 8),
		}
		for i := 0; i < added; i++ {
			defs = append(defs, num("g"+string(rune('a'+i)), meta.Integer, 8))
		}
		return mustBuild(t, "metric", p, defs...)
	}
	// Shapes no compatibility policy admits but PolicyNone does.
	loose := func(p *platform.Platform, flip bool) *meta.Format {
		defs := []meta.FieldDef{
			num("n", meta.Integer, 2), num("m", meta.Integer, 2),
			dyn(num("a", meta.Integer, 4), "n"),
			static(num("s", meta.Unsigned, 2), 2),
			num("cf", meta.Char, 1), num("uf", meta.Unsigned, 8), num("ib", meta.Integer, 4),
			static(num("ua", meta.Unsigned, 8), 2),
			static(num("small", meta.Integer, 1), 2),
		}
		if flip {
			defs = []meta.FieldDef{
				num("n", meta.Integer, 2), num("m", meta.Integer, 2),
				static(num("a", meta.Integer, 8), 3),      // dynamic -> static
				dyn(num("s", meta.Unsigned, 4), "m"),      // static -> dynamic, resized
				num("cf", meta.Float, 4),                  // char scalar -> float
				num("uf", meta.Float, 8),                  // unsigned scalar -> float, through int64
				num("ib", meta.Boolean, 2),                // integer scalar -> boolean
				static(num("ua", meta.Float, 8), 4),       // unsigned array -> float, longer
				dyn(num("fresh", meta.Boolean, 4), "n"),   // added, sized by an old plain field
				static(num("small", meta.Unsigned, 8), 2), // sign-extended then reinterpreted
			}
		}
		return mustBuild(t, "loose", p, defs...)
	}

	return []projPair{
		{"drop-only", metric(le, 5), metric(le, 0)},
		{"add-only", metric(le, 0), metric(le, 5)},
		{"narrow-le-be", kitchen(le, true), kitchen(be, false)},
		{"widen-be-le", kitchen(be, false), kitchen(le, true)},
		{"same-format", kitchen(le, true), kitchen(le, true)},
		{"relayout", kitchen(platform.X86, false), kitchen(platform.Sparc64, false)},
		{"loose", loose(le, false), loose(be, true)},
	}
}

// randomRecord fills a record of format f with seeded values: boundary and
// random numbers, signalling NaNs, empty and non-empty strings, dynamic
// arrays of 0..3 elements with every array on one length field agreeing.
func randomRecord(t testing.TB, r *rand.Rand, f *meta.Format) *pbio.Record {
	t.Helper()
	out := pbio.NewRecord(f)
	counts := map[string]int{}
	for i := range f.Fields {
		if lf := strings.ToLower(f.Fields[i].LengthField); lf != "" {
			if _, ok := counts[lf]; !ok {
				counts[lf] = r.Intn(4)
			}
		}
	}
	scalar := func(fl *meta.Field) any {
		switch fl.Kind {
		case meta.Integer:
			return int64(r.Uint64()) >> uint(64-8*fl.Size)
		case meta.Unsigned, meta.Enum:
			return r.Uint64() >> uint(64-8*fl.Size)
		case meta.Char:
			return byte(r.Intn(256))
		case meta.Boolean:
			return r.Intn(2) == 0
		case meta.Float:
			switch r.Intn(4) {
			case 0:
				if fl.Size == 4 { // a signalling NaN: the record path quietens it
					return float64(math.Float32frombits(0x7fa00001 | uint32(r.Intn(2))<<31))
				}
				return math.Float64frombits(0x7ff0000000000001 + uint64(r.Intn(1000)))
			case 1:
				return float64(float32(r.NormFloat64()))
			}
			return r.NormFloat64() * 1e6
		case meta.String:
			return []string{"", "a", "hello, world", "héllo → 世界"}[r.Intn(4)]
		}
		return randomRecord(t, r, fl.Sub)
	}
	for i := range f.Fields {
		fl := &f.Fields[i]
		if _, isLength := counts[strings.ToLower(fl.Name)]; isLength {
			continue // written by its arrays
		}
		n := -1
		switch {
		case fl.IsDynamic():
			n = counts[strings.ToLower(fl.LengthField)]
		case fl.IsStaticArray():
			n = fl.StaticDim
		}
		var v any
		switch {
		case n < 0:
			v = scalar(fl)
		case fl.Kind == meta.Integer:
			s := make([]int64, n)
			for k := range s {
				s[k] = scalar(fl).(int64)
			}
			v = s
		case fl.Kind == meta.Unsigned, fl.Kind == meta.Enum:
			s := make([]uint64, n)
			for k := range s {
				s[k] = scalar(fl).(uint64)
			}
			v = s
		case fl.Kind == meta.Float:
			s := make([]float64, n)
			for k := range s {
				s[k] = scalar(fl).(float64)
			}
			v = s
		case fl.Kind == meta.Char:
			s := make([]byte, n)
			r.Read(s)
			v = s
		case fl.Kind == meta.Boolean:
			s := make([]bool, n)
			for k := range s {
				s[k] = r.Intn(2) == 0
			}
			v = s
		default:
			s := make([]*pbio.Record, n)
			for k := range s {
				s[k] = randomRecord(t, r, fl.Sub)
			}
			v = s
		}
		if err := out.Set(fl.Name, v); err != nil {
			t.Fatalf("setting %s.%s: %v", f.Name, fl.Name, err)
		}
	}
	return out
}

// reference is the record path a Projection must reproduce byte for byte.
func reference(ctx *pbio.Context, p projPair, body []byte) ([]byte, error) {
	dec, err := ctx.DecodeRecordBody(p.src, body)
	if err != nil {
		return nil, err
	}
	proj, err := registry.Project(dec, p.dst)
	if err != nil {
		return nil, err
	}
	return ctx.EncodeRecordBody(nil, proj)
}

// checkProjection asserts the contract on one body: where the record path
// succeeds the plan yields the same bytes, where it fails the plan fails.
func checkProjection(t *testing.T, ctx *pbio.Context, p projPair, plan *pbio.Projection, body []byte) {
	t.Helper()
	want, werr := reference(ctx, p, body)
	prefix := []byte("frame-header:")
	got, gerr := plan.Append(append([]byte(nil), prefix...), body)
	switch {
	case werr != nil && gerr == nil:
		t.Fatalf("%s: record path failed (%v) but the plan produced %d bytes\n  body %x", p.name, werr, len(got), body)
	case werr == nil && gerr != nil:
		t.Fatalf("%s: plan failed (%v) where the record path succeeds\n  body %x", p.name, gerr, body)
	case werr != nil:
		return
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%s: plan overwrote the bytes it was appending to", p.name)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("%s: plan and record path disagree\n  body %x\n  want %x\n  got  %x", p.name, body, want, got)
	}
}

func TestProjectionMatchesRecordPath(t *testing.T) {
	ctx := pbio.NewContext()
	for _, p := range projectionPairs(t) {
		plan, err := pbio.CompileProjection(p.src, p.dst)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		r := rand.New(rand.NewSource(20010807))
		for i := 0; i < 200; i++ {
			body, err := ctx.EncodeRecordBody(nil, randomRecord(t, r, p.src))
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			checkProjection(t, ctx, p, plan, body)
			// Every truncation is either rejected by both paths or, while
			// only unreferenced tail bytes are missing, projected alike.
			if i < 8 {
				for cut := 0; cut < len(body); cut++ {
					checkProjection(t, ctx, p, plan, body[:cut:cut])
				}
			}
		}
	}
}

// TestProjectionAddedArrayOnOldLength is the ISSUE 16 regression: v2 adds a
// dynamic array sized by a field v1 already carried.  A v1 event with n = 3
// must reach a v2 reader as three zeros, not as "3 elements at offset 0".
func TestProjectionAddedArrayOnOldLength(t *testing.T) {
	le := platform.X8664
	v1 := mustBuild(t, "m", le, num("n", meta.Integer, 4), num("x", meta.Float, 8))
	v2 := mustBuild(t, "m", le, num("n", meta.Integer, 4), num("x", meta.Float, 8),
		dyn(num("a", meta.Float, 8), "n"), dyn(rec("r", mustBuild(t, "sub", le, num("q", meta.Integer, 2), str("s"))), "n"))
	ctx := pbio.NewContext()
	in := pbio.NewRecord(v1)
	in.Set("n", 3)
	in.Set("x", 1.5)
	body, err := ctx.EncodeRecordBody(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []projPair{{"up", v1, v2}, {"down", v2, v1}} {
		plan, err := pbio.CompileProjection(p.src, p.dst)
		if err != nil {
			t.Fatal(err)
		}
		checkProjection(t, ctx, p, plan, body)
		out, err := plan.Append(nil, body)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ctx.DecodeRecordBody(p.dst, out)
		if err != nil {
			t.Fatalf("%s: projected frame does not decode: %v", p.name, err)
		}
		if p.dst == v2 {
			if a, _ := got.Get("a"); len(a.([]float64)) != 3 {
				t.Errorf("a = %v, want three zeros", a)
			}
			if r, _ := got.Get("r"); len(r.([]*pbio.Record)) != 3 {
				t.Errorf("r = %v, want three zero records", r)
			}
		}
		body = out // the down leg projects the up leg's output back
	}

	// A hostile or merely unlucky count is refused by both paths alike,
	// before anything is allocated for it.
	for _, n := range []int64{-1, math.MaxInt32} {
		in.Set("n", n)
		body, _ := ctx.EncodeRecordBody(nil, in)
		plan, _ := pbio.CompileProjection(v1, v2)
		if _, err := plan.Append(nil, body); err == nil || !strings.Contains(err.Error(), `"a"`) {
			t.Errorf("n = %d: plan error %v, want one naming field a", n, err)
		}
		checkProjection(t, ctx, projPair{"cap", v1, v2}, plan, body)
	}
}

// TestProjectionCompileErrors: what the record path can never convert fails
// compilation, naming the field, and the record path indeed fails on it.
func TestProjectionCompileErrors(t *testing.T) {
	le := platform.X8664
	base := mustBuild(t, "m", le, num("id", meta.Integer, 4), num("v", meta.Float, 8),
		static(num("arr", meta.Integer, 4), 4), num("flag", meta.Boolean, 1), static(num("cs", meta.Char, 1), 2))
	ctx := pbio.NewContext()
	body, err := ctx.EncodeRecordBody(nil, pbio.NewRecord(base))
	if err != nil {
		t.Fatal(err)
	}
	for field, def := range map[string]meta.FieldDef{
		"v":    str("v"),                                   // float -> string
		"id":   static(num("id", meta.Integer, 4), 2),      // scalar -> array
		"arr":  static(num("arr", meta.Integer, 4), 3),     // static array shrinks
		"flag": num("flag", meta.Integer, 4),               // boolean -> integer
		"cs":   static(num("cs", meta.Float, 4), 2),        // char array -> float array
		"ID":   rec("ID", mustBuild(t, "s", le, str("x"))), // scalar -> record, case-folded name
	} {
		dst := mustBuild(t, "m", le, def)
		_, err := pbio.CompileProjection(base, dst)
		if err == nil || !strings.Contains(strings.ToLower(err.Error()), `field "`+strings.ToLower(field)+`"`) {
			t.Errorf("%s: compile error %v, want one naming the field", field, err)
		}
		if _, rerr := reference(ctx, projPair{src: base, dst: dst}, body); rerr == nil {
			t.Errorf("%s: the record path converts what the plan refuses", field)
		}
	}
}

// TestProjectionHostilePointers pins the reads a fuzzer finds last: 8-byte
// pointers and counts chosen to overflow offset arithmetic.
func TestProjectionHostilePointers(t *testing.T) {
	f := mustBuild(t, "m", platform.X8664, str("s"), num("n", meta.Integer, 8), dyn(num("a", meta.Integer, 8), "n"))
	p := projPair{"hostile", f, f}
	plan, err := pbio.CompileProjection(f, f)
	if err != nil {
		t.Fatal(err)
	}
	ctx := pbio.NewContext()
	for _, ptr := range []uint64{math.MaxInt64, math.MaxInt64 - 3, math.MaxUint64, 1 << 63, 24, 23, 21} {
		for _, n := range []uint64{0, 1, math.MaxInt64, math.MaxUint64, 1 << 61} {
			body := make([]byte, f.Size+8)
			binary.LittleEndian.PutUint64(body[0:], ptr)
			binary.LittleEndian.PutUint64(body[8:], n)
			binary.LittleEndian.PutUint64(body[16:], ptr)
			checkProjection(t, ctx, p, plan, body)
		}
	}
}

func TestProjectionAllocs(t *testing.T) {
	p := projectionPairs(t)[2]
	plan, err := pbio.CompileProjection(p.src, p.dst)
	if err != nil {
		t.Fatal(err)
	}
	body, err := pbio.NewContext().EncodeRecordBody(nil, randomRecord(t, rand.New(rand.NewSource(1)), p.src))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := plan.Append(out[:0], body); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Projection.Append: %v allocs/op, want 0", n)
	}
}

// FuzzProjection mutates bodies under every pair of the corpus.  Truncated
// bodies, hostile counts and pointers must never panic or read past the
// body; the record path is the oracle for everything else.
func FuzzProjection(f *testing.F) {
	pairs := projectionPairs(f)
	plans := make([]*pbio.Projection, len(pairs))
	ctx := pbio.NewContext()
	r := rand.New(rand.NewSource(16))
	for i, p := range pairs {
		plan, err := pbio.CompileProjection(p.src, p.dst)
		if err != nil {
			f.Fatalf("%s: %v", p.name, err)
		}
		plans[i] = plan
		for k := 0; k < 3; k++ {
			body, err := ctx.EncodeRecordBody(nil, randomRecord(f, r, p.src))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), body)
			f.Add(uint8(i), body[:p.src.Size])
			if len(body) > p.src.Size+3 {
				f.Add(uint8(i), body[:len(body)-3])
			}
		}
	}
	f.Fuzz(func(t *testing.T, pair uint8, body []byte) {
		i := int(pair) % len(pairs)
		checkProjection(t, ctx, pairs[i], plans[i], body)
	})
}

func BenchmarkProjection(b *testing.B) {
	ctx := pbio.NewContext()
	for _, p := range projectionPairs(b)[:3] {
		plan, err := pbio.CompileProjection(p.src, p.dst)
		if err != nil {
			b.Fatal(err)
		}
		body, err := ctx.EncodeRecordBody(nil, randomRecord(b, rand.New(rand.NewSource(1)), p.src))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.name+"/plan", func(b *testing.B) {
			out := make([]byte, 0, 4096)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Append(out[:0], body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p.name+"/record", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := reference(ctx, p, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
