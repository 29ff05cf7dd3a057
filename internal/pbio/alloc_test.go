package pbio

import (
	"fmt"
	"sync"
	"testing"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/platform"
)

// TestEncodeDecodeAllocFree pins the tentpole guarantee: once a binding and
// decode plan are warm and the caller reuses its buffers, the PBIO hot path
// performs zero heap allocations per message on a mixed workload (scalars,
// strings, static and dynamic arrays, nested structs).
func TestEncodeDecodeAllocFree(t *testing.T) {
	c := NewContext(WithPlatform(platform.Sparc32))
	f, err := c.RegisterFields("kitchen", kitchenFields(c))
	if err != nil {
		t.Fatal(err)
	}
	in := kitchenValue()
	b, err := c.Bind(f, &in)
	if err != nil {
		t.Fatal(err)
	}

	// Warm: compile the plan, size the reusable buffers, populate out's
	// slices and strings.
	var dst []byte
	if dst, err = b.EncodeTo(dst, &in); err != nil {
		t.Fatal(err)
	}
	body, err := b.EncodeBody(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	var out kitchenSink
	if err := c.DecodeBody(f, body, &out); err != nil {
		t.Fatal(err)
	}
	checkKitchen(t, "warmup", out)

	if n := testing.AllocsPerRun(200, func() {
		var err error
		if dst, err = b.EncodeTo(dst, &in); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("EncodeTo: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := b.EncodedSize(&in); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("EncodedSize: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := c.DecodeBody(f, body, &out); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("DecodeBody: %v allocs/op, want 0", n)
	}
	checkKitchen(t, "alloc-run", out)
}

// TestDecodePlanAlternating: the one-entry last-plan cache in front of the
// plan map changes nothing when formats (or target types) alternate on one
// context — every decode still gets the plan of its own (format, type) pair,
// still without allocating.
func TestDecodePlanAlternating(t *testing.T) {
	type pointA struct{ X, Y int32 }
	type pointB struct{ Y, X int64 } // same names, another layout
	c := NewContext()
	fa, err := c.RegisterFields("a", []IOField{{Name: "x", Type: "integer"}, {Name: "y", Type: "integer"}})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := c.RegisterFields("b", []IOField{{Name: "y", Type: "integer"}, {Name: "x", Type: "integer"}})
	if err != nil {
		t.Fatal(err)
	}
	ba, err := c.Bind(fa, &pointA{})
	if err != nil {
		t.Fatal(err)
	}
	bb, err := c.Bind(fb, &pointA{})
	if err != nil {
		t.Fatal(err)
	}
	bodyA, err := ba.EncodeBody(nil, &pointA{X: 1, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	bodyB, err := bb.EncodeBody(nil, &pointA{X: 3, Y: 4})
	if err != nil {
		t.Fatal(err)
	}
	var a pointA
	var b pointB
	round := func() {
		if err := c.DecodeBody(fa, bodyA, &a); err != nil || a != (pointA{X: 1, Y: 2}) {
			t.Errorf("format a into pointA: %+v, %v", a, err)
		}
		if err := c.DecodeBody(fb, bodyB, &a); err != nil || a != (pointA{X: 3, Y: 4}) {
			t.Errorf("format b into pointA: %+v, %v", a, err)
		}
		if err := c.DecodeBody(fb, bodyB, &b); err != nil || b != (pointB{X: 3, Y: 4}) {
			t.Errorf("format b into pointB: %+v, %v", b, err)
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("alternating DecodeBody: %v allocs/op, want 0", n)
	}
}

// TestBufferPoolAllocFree checks the Get/Release cycle itself is free once
// the pool is primed, and that oversized buffers are dropped.
func TestBufferPoolAllocFree(t *testing.T) {
	GetBuffer().Release()
	if n := testing.AllocsPerRun(200, func() {
		buf := GetBuffer()
		buf.B = append(buf.B[:0], "payload"...)
		buf.Release()
	}); n != 0 {
		t.Errorf("GetBuffer/Release: %v allocs/op, want 0", n)
	}

	big := &Buffer{B: make([]byte, maxPooledBuf+1)}
	big.Release() // must not be retained
	if got := GetBuffer(); cap(got.B) > maxPooledBuf {
		t.Errorf("pool returned %d-byte buffer beyond cap %d", cap(got.B), maxPooledBuf)
	}
	PutBuffer(nil) // must not panic
}

// badFormat builds metadata whose dynamic array names a length field that
// does not exist — the shape that crashed compileDecoder before validation
// was enforced on every decode entry point.
func badFormat() *meta.Format {
	return &meta.Format{
		Name: "bad",
		Fields: []meta.Field{
			{Name: "data", Kind: meta.Float, Size: 8, Offset: 0, LengthField: "missing"},
		},
		Size:        8,
		Align:       8,
		PointerSize: 8,
	}
}

// TestMalformedFormatErrors pins the crash fix: a format with a dangling
// LengthField reference — e.g. fetched from a hostile or buggy peer and
// handed straight to a decode entry point — must yield an error, never a
// panic, from every decode and registration path.
func TestMalformedFormatErrors(t *testing.T) {
	c := NewContext()
	bad := badFormat()
	body := make([]byte, bad.Size)

	if _, err := c.RegisterFormat(bad); err == nil {
		t.Error("RegisterFormat accepted a format with a dangling length field")
	}
	var out struct{ Data []float64 }
	if err := c.DecodeBody(bad, body, &out); err == nil {
		t.Error("DecodeBody accepted a format with a dangling length field")
	}
	if _, err := c.DecodeRecordBody(bad, body); err == nil {
		t.Error("DecodeRecordBody accepted a format with a dangling length field")
	}
	if _, err := c.Bind(bad, &out); err == nil {
		t.Error("Bind accepted a format with a dangling length field")
	}
	if err := c.DecodeBody(nil, body, &out); err == nil {
		t.Error("DecodeBody accepted a nil format")
	}
}

// TestConcurrentHotPath hammers the copy-on-write caches and the buffer
// pool from many goroutines while new formats are being registered, so the
// -race run exercises every lock-free read against concurrent publication.
func TestConcurrentHotPath(t *testing.T) {
	c := NewContext(WithPlatform(platform.Sparc32))
	f, err := c.RegisterFields("kitchen", kitchenFields(c))
	if err != nil {
		t.Fatal(err)
	}
	in := kitchenValue()
	b, err := c.Bind(f, &in)
	if err != nil {
		t.Fatal(err)
	}
	body, err := b.EncodeBody(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()

	const workers = 8
	const rounds = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := kitchenValue()
			var out kitchenSink
			buf := GetBuffer()
			defer buf.Release()
			for i := 0; i < rounds; i++ {
				var err error
				if buf.B, err = b.EncodeTo(buf.B, &local); err != nil {
					t.Error(err)
					return
				}
				if err := c.DecodeBody(f, body, &out); err != nil {
					t.Error(err)
					return
				}
				if c.FormatByID(id) != f {
					t.Error("FormatByID lost a registered format")
					return
				}
				if _, err := c.Bind(f, &local); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Churn the COW maps concurrently with the readers above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("churn%d", i)
			if _, err := c.RegisterFields(name, []IOField{
				{Name: "n", Type: "integer"},
				{Name: "vals", Type: "double[n]"},
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
