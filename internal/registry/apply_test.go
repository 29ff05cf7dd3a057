package registry_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/open-metadata/xmit/internal/conform"
	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/registry"
)

// lineageLog records, per lineage, what an observer heard, in order.
type lineageLog struct {
	mu     sync.Mutex
	events map[string][]string
}

func (o *lineageLog) LineageAppended(lineage string, v registry.Version, adopted bool) {
	o.note(lineage, fmt.Sprintf("append v%d %s parent=%s source=%s adopted=%v", v.Version, v.ID, v.Parent, v.Source, adopted))
}

func (o *lineageLog) PolicyChanged(lineage string, p registry.Policy) {
	o.note(lineage, "policy "+p.String())
}

func (o *lineageLog) note(lineage, ev string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.events == nil {
		o.events = map[string][]string{}
	}
	o.events[lineage] = append(o.events[lineage], ev)
}

var chainPolicies = []registry.Policy{
	registry.PolicyBackwardTransitive,
	registry.PolicyForwardTransitive,
	registry.PolicyFullTransitive,
}

// randomUpdates generates n lineages' worth of replicated history from
// conform's evolution chains: a policy, then 1-6 versions, sometimes with a
// second policy change part-way and a version repeated.
func randomUpdates(t *testing.T, r *rand.Rand, n int) []registry.Update {
	t.Helper()
	updates := make([]registry.Update, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("l%03d", i)
		policy := chainPolicies[r.Intn(len(chainPolicies))]
		chain := conform.RandomEvolveChain(r, name, conform.DefaultGen, r.Intn(6), policy)
		muts := []registry.Mutation{{Policy: policy}}
		for v, s := range chain.Specs {
			f, err := s.Build(platform.X8664)
			if err != nil {
				t.Fatal(err)
			}
			muts = append(muts, registry.Mutation{Format: f, Source: fmt.Sprintf("peer%d", v%3)})
			if r.Intn(8) == 0 {
				muts = append(muts, registry.Mutation{Policy: chainPolicies[r.Intn(len(chainPolicies))]})
			}
			if r.Intn(8) == 0 {
				muts = append(muts, muts[1]) // a version the lineage already holds
			}
		}
		updates = append(updates, registry.Update{Lineage: name, Mutations: muts})
	}
	return updates
}

// TestApplyMatchesOneAtATime: a bulk apply leaves the registry exactly
// where adopting the same mutations one at a time does — the same lineage
// document, version numbers, parents and sources, the same observer calls
// per lineage in the same order, and the same revisions — whether the
// lineages are new or already have history.
func TestApplyMatchesOneAtATime(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		updates := randomUpdates(t, r, 1+r.Intn(12))
		// Two rounds: the first half of every lineage's mutations, then the
		// rest, so the second round extends non-empty histories.
		var rounds [2][]registry.Update
		for _, u := range updates {
			cut := r.Intn(len(u.Mutations) + 1)
			rounds[0] = append(rounds[0], registry.Update{Lineage: u.Lineage, Mutations: u.Mutations[:cut]})
			rounds[1] = append(rounds[1], registry.Update{Lineage: u.Lineage, Mutations: u.Mutations[cut:]})
		}

		single := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
		bulk := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
		var singleLog, bulkLog lineageLog
		single.Observe(&singleLog)
		bulk.Observe(&bulkLog)

		for round, batch := range rounds {
			want := 0
			for _, u := range batch {
				before := 0
				if l, err := single.Lineage(u.Lineage); err == nil {
					before = l.Len()
				} else {
					// Adopting the default policy creates the lineage and
					// nothing else, as an Update without mutations does.
					single.AdoptPolicy(u.Lineage, registry.PolicyBackward)
				}
				for _, m := range u.Mutations {
					if m.Format == nil {
						single.AdoptPolicy(u.Lineage, m.Policy)
					} else if _, err := single.Adopt(u.Lineage, m.Format, m.Source); err != nil {
						t.Fatal(err)
					}
				}
				l, _ := single.Lineage(u.Lineage)
				want += l.Len() - before
			}
			revBefore := bulk.Rev()
			if got := bulk.Apply(batch); got != want {
				t.Fatalf("seed %d round %d: Apply appended %d versions, one at a time appended %d", seed, round, got, want)
			}
			if bulk.Rev() < revBefore || bulk.Rev() != single.Rev() {
				t.Fatalf("seed %d round %d: bulk rev %d -> %d, one at a time %d", seed, round, revBefore, bulk.Rev(), single.Rev())
			}
		}

		wantDoc := discovery.MarshalLineages(discovery.SnapshotLineagesFull(single))
		gotDoc := discovery.MarshalLineages(discovery.SnapshotLineagesFull(bulk))
		if !bytes.Equal(gotDoc, wantDoc) {
			t.Fatalf("seed %d: lineage documents differ:\n%s\n--- want ---\n%s", seed, gotDoc, wantDoc)
		}
		for _, name := range single.Lineages() {
			ls, _ := single.Lineage(name)
			lb, err := bulk.Lineage(name)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if lb.Rev() != ls.Rev() || lb.Policy() != ls.Policy() {
				t.Errorf("seed %d %s: rev %d policy %v, want rev %d policy %v", seed, name, lb.Rev(), lb.Policy(), ls.Rev(), ls.Policy())
			}
			vs, vb := ls.Versions(), lb.Versions()
			for i := range vs {
				if vb[i].Version != vs[i].Version || vb[i].ID != vs[i].ID || vb[i].Parent != vs[i].Parent || vb[i].Source != vs[i].Source {
					t.Errorf("seed %d %s v%d: %+v, want %+v", seed, name, i+1, vb[i], vs[i])
				}
				if v, ok := lb.ResolveID(vs[i].ID); !ok || v.Version != i+1 {
					t.Errorf("seed %d %s: ResolveID(%s) = v%d, %v", seed, name, vs[i].ID, v.Version, ok)
				}
			}
			if got, want := fmt.Sprint(bulkLog.events[name]), fmt.Sprint(singleLog.events[name]); got != want {
				t.Errorf("seed %d %s: observer heard\n%s\nwant\n%s", seed, name, got, want)
			}
		}
	}
}

// TestApplyPublishesWholeHistories: readers that resolve against a lineage
// while a bulk apply runs see the history from before the batch or the
// complete one after it, never part of the batch.  Run under -race.
func TestApplyPublishesWholeHistories(t *testing.T) {
	const lineages, oldLen, newLen = 8, 3, 40
	formats := make([][]*meta.Format, lineages)
	for i := range formats {
		defs := []meta.FieldDef{{Name: "seq", Kind: meta.Integer, Class: platform.LongLong}}
		for v := 0; v < newLen; v++ {
			defs = append(defs, meta.FieldDef{Name: fmt.Sprintf("f%d", v), Kind: meta.Integer, Class: platform.Int})
			f, err := meta.Build(fmt.Sprintf("l%d", i), platform.X8664, defs)
			if err != nil {
				t.Fatal(err)
			}
			formats[i] = append(formats[i], f)
		}
	}
	batch := func(from, to int) []registry.Update {
		var out []registry.Update
		for i, fs := range formats {
			u := registry.Update{Lineage: fmt.Sprintf("l%d", i)}
			for _, f := range fs[from:to] {
				u.Mutations = append(u.Mutations, registry.Mutation{Format: f, Source: "test"})
			}
			out = append(out, u)
		}
		return out
	}
	reg := registry.New()
	reg.Apply(batch(0, oldLen))

	stop := make(chan struct{})
	var readers, reading sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		reading.Add(1)
		go func() {
			defer readers.Done()
			for pass := 0; ; pass++ {
				select {
				case <-stop:
					return
				default:
				}
				if pass == 1 {
					reading.Done() // one full pass made: the apply may start
				}
				for i, fs := range formats {
					l, err := reg.Lineage(fmt.Sprintf("l%d", i))
					if err != nil {
						t.Errorf("lineage l%d vanished: %v", i, err)
						continue
					}
					_, midOK := l.ResolveID(fs[oldLen].ID())
					_, lastErr := l.Resolve(newLen)
					_, lastOK := l.ResolveID(fs[newLen-1].ID())
					n := l.Len()
					// Reads run oldest-evidence first: once the first new
					// version is visible, the whole batch must be.
					if n != oldLen && n != newLen {
						t.Errorf("l%d: saw %d versions, want %d or %d", i, n, oldLen, newLen)
					}
					if midOK && (lastErr != nil || !lastOK || n != newLen) {
						t.Errorf("l%d: first new version visible without the last (Resolve: %v, ResolveID: %v, Len %d)", i, lastErr, lastOK, n)
					}
				}
			}
		}()
	}
	reading.Wait()
	reg.Apply(batch(oldLen, newLen))
	close(stop)
	readers.Wait()
	for i := range formats {
		if l, _ := reg.Lineage(fmt.Sprintf("l%d", i)); l.Len() != newLen {
			t.Errorf("l%d: %d versions after the apply, want %d", i, l.Len(), newLen)
		}
	}
}
