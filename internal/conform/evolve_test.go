package conform

import (
	"math/rand"
	"testing"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/registry"
)

// TestEvolveAxis runs the evolution axis proper: generated policy-admitted
// lineages, registry acceptance, differential projection against the tree
// reference, and the per-chain negative control.
func TestEvolveAxis(t *testing.T) {
	chains := 48
	if testing.Short() {
		chains = 12
	}
	h := NewHarness()
	st, err := h.RunEvolve(1, chains, EvolveSteps)
	if err != nil {
		t.Fatal(err)
	}
	if st.Chains != chains || st.Pairs == 0 || st.Checks == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Every chain crosses the simulated broker boundary at least once; full
	// chains cross twice.
	if st.MeshLegs < chains {
		t.Fatalf("mesh legs = %d, want >= %d (stats %+v)", st.MeshLegs, chains, st)
	}
}

// TestRandomEvolveChainShape pins structural invariants of generated chains:
// version count, stable name, and that every adjacent step is admitted by
// the chain's policy (checked via a fresh registry per chain).
func TestRandomEvolveChainShape(t *testing.T) {
	h := NewHarness()
	for seed := int64(100); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		policy := evolvePolicies[int(seed)%len(evolvePolicies)]
		chain := RandomEvolveChain(r, "m", DefaultGen, 4, policy)
		if len(chain.Specs) != 5 {
			t.Fatalf("seed %d: %d versions, want 5", seed, len(chain.Specs))
		}
		reg := registry.New(registry.WithDefaultPolicy(policy))
		for v, s := range chain.Specs {
			if s.Name != "m" {
				t.Fatalf("seed %d v%d: name %q", seed, v+1, s.Name)
			}
			cs, err := s.Compile(h.Plats[:1])
			if err != nil {
				t.Fatalf("seed %d v%d: %v", seed, v+1, err)
			}
			if _, err := reg.Register("m", cs.Format(h.Plats[0].Name), "test"); err != nil {
				t.Fatalf("seed %d v%d rejected under %s: %v", seed, v+1, policy, err)
			}
		}
	}
}

// TestProjectTreeZeroFill: a projection onto a version with added fields
// reports exactly the zero tree for them — except an added array on a length
// field src already has, which is zero to src's count for that field.
func TestProjectTreeZeroFill(t *testing.T) {
	for seed := int64(7); seed < 27; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := RandomSpec(r, "z", DefaultGen)
		dst := src.clone()
		seq := 0
		for i := 0; i < 4; i++ {
			addField(r, dst, DefaultGen, &seq)
		}
		tree := RandomValue(r, src)
		got, err := ProjectTree(src, dst, tree)
		if err != nil {
			t.Fatal(err)
		}
		zero := dst.ZeroTree()
		n := len(src.nonLengthFields())
		if len(got) != len(zero) {
			t.Fatalf("seed %d: projected %d entries, dst has %d", seed, len(got), len(zero))
		}
		dstIdx := dst.nonLengthFields()
		for k := n; k < len(got); k++ {
			want := zero[k]
			if df := &dst.Fields[dstIdx[k]]; df.IsDynamic() {
				elems := make([]any, srcCount(src, src.nonLengthFields(), tree, df.LengthField))
				for e := range elems {
					elems[e] = df.zeroElem()
				}
				want = elems
			}
			if !EqualTrees([]any{got[k]}, []any{want}) {
				t.Errorf("seed %d: added field slot %d = %v, want %v", seed, k, got[k], want)
			}
		}
	}
}

// TestEvolveSharedLengthField drives the shape ISSUE 16 found undecodable
// through the real leg, in both directions: v2 puts a scalar array and a
// record array on the length field v1's only array already uses.
func TestEvolveSharedLengthField(t *testing.T) {
	n := FieldSpec{Name: "n", Kind: meta.Integer, Size: 2}
	a := FieldSpec{Name: "a", Kind: meta.Float, Size: 8, LengthField: "n"}
	b := FieldSpec{Name: "b", Kind: meta.Unsigned, Size: 4, LengthField: "n"}
	r := FieldSpec{Name: "r", Kind: meta.Struct, LengthField: "n", Sub: &Spec{Name: "rt", Fields: []FieldSpec{
		{Name: "q", Kind: meta.Integer, Size: 4}, {Name: "s", Kind: meta.String, Size: 1},
	}}}
	chain := &EvolveChain{Policy: registry.PolicyFullTransitive, Specs: []*Spec{
		{Name: "m", Fields: []FieldSpec{n, a}},
		{Name: "m", Fields: []FieldSpec{n, a, b, r}},
	}}
	h := NewHarness()
	compiled := make([]*CompiledSpec, len(chain.Specs))
	for v, s := range chain.Specs {
		cs, err := s.Compile(h.Plats)
		if err != nil {
			t.Fatal(err)
		}
		compiled[v] = cs
	}
	st := &EvolveStats{}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 20; i++ {
		if err := h.projectLeg(chain, compiled, 0, 1, RandomValue(rng, chain.Specs[0]), st); err != nil {
			t.Fatal(err)
		}
		if err := h.projectLeg(chain, compiled, 1, 0, RandomValue(rng, chain.Specs[1]), st); err != nil {
			t.Fatal(err)
		}
	}
	up, err := ProjectTree(chain.Specs[0], chain.Specs[1], []any{[]any{uint64(1), uint64(2), uint64(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(up[1].([]any)) != 3 || len(up[2].([]any)) != 3 {
		t.Fatalf("projected tree %s: added arrays must carry three zeros each", FormatTree(up))
	}
}
