package meta_test

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"github.com/open-metadata/xmit/internal/conform"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/platform"
)

// hashCanonical is the ID's definition, computed from scratch.
func hashCanonical(f *meta.Format) meta.FormatID {
	h := fnv.New64a()
	h.Write(f.Canonical())
	return meta.FormatID(h.Sum64())
}

// idFormats returns formats from every source the program builds them
// from: Build, ParseCanonical, a struct literal, and conform's random
// nested specs.
func idFormats(t *testing.T) map[string]*meta.Format {
	t.Helper()
	out := map[string]*meta.Format{}
	built, err := meta.Build("SimpleData", platform.Sparc32, []meta.FieldDef{
		{Name: "timestep", Kind: meta.Integer, Class: platform.Int},
		{Name: "size", Kind: meta.Integer, Class: platform.Int},
		{Name: "data", Kind: meta.Float, Class: platform.Float, LengthField: "size"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out["build"] = built
	parsed, err := meta.ParseCanonical(built.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	out["parse"] = parsed
	out["literal"] = &meta.Format{
		Name: "Pair", Size: 16, Align: 8, PointerSize: 8, Platform: "x86_64",
		Fields: []meta.Field{
			{Name: "a", Kind: meta.Integer, Size: 4, Offset: 0},
			{Name: "b", Kind: meta.Float, Size: 8, Offset: 8},
		},
	}
	r := rand.New(rand.NewSource(20010807))
	for nested := 0; nested < 4; {
		f, err := conform.RandomSpec(r, "z", conform.DefaultGen).Build(platform.X8664)
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.Fields {
			if f.Fields[i].Kind == meta.Struct {
				out["conform-nested-"+string(rune('a'+nested))] = f
				nested++
				break
			}
		}
	}
	return out
}

func TestFormatIDMemo(t *testing.T) {
	for name, f := range idFormats(t) {
		want := hashCanonical(f)
		for i := 0; i < 2; i++ { // the computing call, then the memoised one
			if got := f.ID(); got != want {
				t.Errorf("%s: call %d: ID = %s, want %s", name, i, got, want)
			}
		}
		for _, fl := range f.Fields {
			if fl.Sub != nil && fl.Sub.ID() != hashCanonical(fl.Sub) {
				t.Errorf("%s: nested %s: ID differs from its canonical hash", name, fl.Sub.Name)
			}
		}
	}

	// A by-value copy carries the original's memo; once changed it must
	// report its own ID, and the original must keep its own.
	f := idFormats(t)["build"]
	orig := f.ID()
	g := *f
	if g.ID() != orig {
		t.Errorf("unchanged copy: ID = %s, want %s", g.ID(), orig)
	}
	h := *f
	h.Name = "Renamed"
	if got, want := h.ID(), hashCanonical(&h); got != want || got == orig {
		t.Errorf("changed copy: ID = %s, want %s (original %s)", got, want, orig)
	}
	if f.ID() != orig {
		t.Errorf("original after copy: ID = %s, want %s", f.ID(), orig)
	}

	// Goroutines racing for the first ID all agree.
	fresh := *f
	fresh.Name = "Raced"
	want := hashCanonical(&fresh)
	var wg sync.WaitGroup
	ids := make([]meta.FormatID, 8)
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = fresh.ID()
		}()
	}
	wg.Wait()
	for i, id := range ids {
		if id != want {
			t.Errorf("goroutine %d: ID = %s, want %s", i, id, want)
		}
	}
}

// TestFormatIDAllocs pins the memo: after the first call, taking a
// format's ID allocates nothing (recomputing it allocated the canonical
// serialisation).
func TestFormatIDAllocs(t *testing.T) {
	f := idFormats(t)["build"]
	f.ID()
	if n := testing.AllocsPerRun(100, func() { f.ID() }); n != 0 {
		t.Errorf("ID: %v allocs/op after the first call, want 0", n)
	}
}
