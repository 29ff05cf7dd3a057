package registry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/open-metadata/xmit/internal/meta"
)

// Version is one step of a lineage: a concrete format, its content-hash
// identity, the parent link, and registration provenance.
type Version struct {
	// Version is the 1-based position in the lineage (v1, v2, ...).
	Version int
	// ID is the format's 64-bit content hash.
	ID meta.FormatID
	// Format is the registered format.
	Format *meta.Format
	// Parent is the ID of the preceding version, zero for v1.
	Parent meta.FormatID
	// Source records who registered the version ("publish", "fmtserver",
	// a peer address — whatever the registering path knows).
	Source string
	// RegisteredAt is the registration wall-clock time.
	RegisteredAt time.Time
}

// lineageSnap is the immutable snapshot readers resolve against.  Writers
// build a new snapshot and swap it in; Resolve and Head never lock.
type lineageSnap struct {
	versions []Version
	byID     map[meta.FormatID]int
}

// Lineage is the versioned history of one named format.
type Lineage struct {
	name   string
	mu     sync.Mutex // serialises writers (see commit)
	policy atomic.Int32
	snap   atomic.Pointer[lineageSnap]
	// rev points at the owning registry's revision counter; lastRev records
	// the registry revision of this lineage's most recent mutation, so delta
	// consumers (mesh gossip) can ask for "everything after revision N".
	rev     *atomic.Uint64
	lastRev atomic.Uint64
	// observer points at the owning registry's observer slot; mutations are
	// reported through it after they commit (see Registry.Observe).
	observer *atomic.Pointer[Observer]
}

// Rev returns the registry revision of this lineage's last mutation (zero
// if it has never been mutated).
func (l *Lineage) Rev() uint64 { return l.lastRev.Load() }

// Name returns the lineage name.
func (l *Lineage) Name() string { return l.name }

// Policy returns the lineage's current compatibility policy.
func (l *Lineage) Policy() Policy { return Policy(l.policy.Load()) }

// Len returns the number of registered versions.
func (l *Lineage) Len() int { return len(l.snap.Load().versions) }

// Head returns the newest version, or false for an empty lineage (one that
// has a policy set but no registrations yet).
func (l *Lineage) Head() (Version, bool) {
	vs := l.snap.Load().versions
	if len(vs) == 0 {
		return Version{}, false
	}
	return vs[len(vs)-1], true
}

// Resolve returns version number n (1-based).  It is lock-free and
// allocation-free: subscribers resolve their pinned view on every attach
// and the broker resolves per published format.
func (l *Lineage) Resolve(n int) (Version, error) {
	vs := l.snap.Load().versions
	if n < 1 || n > len(vs) {
		return Version{}, fmt.Errorf("%w: %s v%d (have %d versions)", ErrUnknownVersion, l.name, n, len(vs))
	}
	return vs[n-1], nil
}

// ResolveID returns the version with the given content hash, if any.  Like
// Resolve it takes no locks and allocates nothing.
func (l *Lineage) ResolveID(id meta.FormatID) (Version, bool) {
	s := l.snap.Load()
	if i, ok := s.byID[id]; ok {
		return s.versions[i], true
	}
	return Version{}, false
}

// Versions returns a copy of the full history, oldest first.
func (l *Lineage) Versions() []Version {
	vs := l.snap.Load().versions
	out := make([]Version, len(vs))
	copy(out, vs)
	return out
}

// Mutation is one replicated change to a lineage: a version to append, or —
// with a nil Format — a policy to adopt.  Some other authority (the home
// broker, the journal of a previous run) already admitted it, so applying
// one performs no compatibility check.
type Mutation struct {
	// Format is the version to append.  Appending an ID the lineage already
	// holds is a no-op.
	Format *meta.Format
	// Source is the provenance recorded on an appended version.
	Source string
	// Policy replaces the lineage policy when Format is nil, without
	// validating the existing history against it.
	Policy Policy
}

// commit applies muts in order and publishes the result once: however many
// versions a batch appends, the versions slice and the byID index are
// copied once and swapped in with one atomic store, so a reader sees the
// history before the batch or after it, never part of it.  The registry
// revision advances by one per mutation that took effect, and the observer
// hears those mutations, in order, after the publish.  It returns the
// version the last append in muts resolved to (appended now or already
// present) and the number of versions appended.  Callers hold l.mu.
func (l *Lineage) commit(muts []Mutation, adopted bool) (last Version, appended int) {
	cur := l.snap.Load()
	next := cur // becomes a private copy at the first new version
	pol := l.Policy()
	var now time.Time
	var effBuf [4]int
	eff := effBuf[:0] // indices of the mutations that took effect
	for i, m := range muts {
		if m.Format == nil {
			if m.Policy != pol {
				pol = m.Policy
				eff = append(eff, i)
			}
			continue
		}
		id := m.Format.ID()
		if j, ok := next.byID[id]; ok {
			last = next.versions[j]
			continue
		}
		if next == cur {
			next = cur.grown(len(muts) - i)
			now = time.Now()
		}
		last = Version{
			Version:      len(next.versions) + 1,
			ID:           id,
			Format:       m.Format,
			Source:       m.Source,
			RegisteredAt: now,
		}
		if n := len(next.versions); n > 0 {
			last.Parent = next.versions[n-1].ID
		}
		next.byID[id] = len(next.versions)
		next.versions = append(next.versions, last)
		eff = append(eff, i)
	}
	if len(eff) == 0 {
		return last, 0
	}
	if next != cur {
		l.snap.Store(next)
	}
	l.policy.Store(int32(pol))
	l.lastRev.Store(l.rev.Add(uint64(len(eff))))
	if o := l.observer.Load(); o != nil {
		n := len(cur.versions)
		for _, i := range eff {
			if muts[i].Format == nil {
				(*o).PolicyChanged(l.name, muts[i].Policy)
				continue
			}
			(*o).LineageAppended(l.name, next.versions[n], adopted)
			n++
		}
	}
	return last, len(next.versions) - len(cur.versions)
}

// grown returns a private copy of the snapshot with room for extra more
// versions.
func (s *lineageSnap) grown(extra int) *lineageSnap {
	next := &lineageSnap{
		versions: make([]Version, len(s.versions), len(s.versions)+extra),
		byID:     make(map[meta.FormatID]int, len(s.byID)+extra),
	}
	copy(next.versions, s.versions)
	for id, i := range s.byID {
		next.byID[id] = i
	}
	return next
}

// Register appends a format to the lineage if the policy admits it.
// Re-registering an ID already in the lineage is idempotent and returns
// the existing version.  A policy violation returns a *CompatError naming
// the offending fields; the lineage is unchanged.
func (l *Lineage) Register(f *meta.Format, source string) (Version, error) {
	id := f.ID()
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.snap.Load()
	if i, ok := cur.byID[id]; ok {
		return cur.versions[i], nil
	}
	pol := l.Policy()
	if len(cur.versions) > 0 {
		against := cur.versions[len(cur.versions)-1:]
		if pol.Transitive() {
			against = cur.versions
		}
		for _, prev := range against {
			if err := checkStep(l.name, pol, prev, id, f); err != nil {
				return Version{}, err
			}
		}
	}
	v, _ := l.commit([]Mutation{{Format: f, Source: source}}, false)
	return v, nil
}

// Adopt appends a format that some other authority has already admitted —
// the gossip/replication path.  A channel's compatibility policy is decided
// once, at its home broker; remote brokers adopt the resulting history
// verbatim so version numbers mean the same thing mesh-wide.  Adopting an
// ID already in the lineage is idempotent and returns the existing version;
// no policy check is performed either way.
func (l *Lineage) Adopt(f *meta.Format, source string) (Version, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, _ := l.commit([]Mutation{{Format: f, Source: source}}, true)
	return v, nil
}

// AdoptPolicy replaces the lineage policy without validating the existing
// history against it.  Like Adopt, this is the replication path: the home
// broker already ran the SetPolicy validation, so a remote broker mirroring
// the home's state must not re-litigate (its local history may lag).
func (l *Lineage) AdoptPolicy(p Policy) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.commit([]Mutation{{Policy: p}}, true)
}

// SetPolicy changes the lineage policy.  Tightening is only allowed if the
// existing history already satisfies the new policy; otherwise the first
// violating step is returned as a *CompatError and the policy keeps its
// old value.
func (l *Lineage) SetPolicy(p Policy) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	vs := l.snap.Load().versions
	for i := 1; i < len(vs); i++ {
		against := vs[i-1 : i]
		if p.Transitive() {
			against = vs[:i]
		}
		for _, prev := range against {
			if err := checkStep(l.name, p, prev, vs[i].ID, vs[i].Format); err != nil {
				return err
			}
		}
	}
	l.commit([]Mutation{{Policy: p}}, false)
	return nil
}

// checkStep enforces the policy for one evolution step prev -> next.
func checkStep(name string, pol Policy, prev Version, nextID meta.FormatID, next *meta.Format) error {
	backward, forward := pol.directions()
	if !backward && !forward {
		return nil
	}
	diff := meta.EvolveDiff(prev.Format, next)
	bad := diff.Breaking(backward, forward)
	if len(bad) == 0 {
		return nil
	}
	return &CompatError{
		Lineage:     name,
		Policy:      pol,
		PolicyName:  pol.String(),
		FromVersion: prev.Version,
		FromID:      prev.ID,
		ToID:        nextID,
		Violations:  bad,
	}
}

// Observer receives lineage mutations after they commit — the hook a
// persistence layer (internal/store's registry journal) hangs off.  Calls
// for one lineage arrive in history order (they are made under the lineage
// mutex); calls for different lineages may interleave, so an observer that
// serialises (a journal) needs its own lock.  Observers must not call back
// into the registry.
type Observer interface {
	// LineageAppended reports a version appended to the named lineage.
	// adopted distinguishes the replication path (Adopt — some other
	// authority admitted it) from a locally policy-checked Register.
	LineageAppended(lineage string, v Version, adopted bool)
	// PolicyChanged reports a committed policy change (SetPolicy or
	// AdoptPolicy); no-op policy sets are not reported.
	PolicyChanged(lineage string, p Policy)
}

// Registry is the set of lineages, keyed by name.  The table is a sync.Map:
// lookups of a known lineage are lock-free and allocate nothing, and a new
// lineage joins in O(1) amortised — a live daemon registering its n-th
// lineage does not copy the other n-1.
type Registry struct {
	lineages      sync.Map // name -> *Lineage
	defaultPolicy Policy
	observer      atomic.Pointer[Observer]
	// rev increments on every lineage mutation (Register, Adopt, policy
	// change).  Each lineage records the revision of its own last mutation,
	// so "what changed since revision N" is answerable without diffing.
	rev atomic.Uint64
}

// Observe attaches the registry's mutation observer (nil detaches).  Attach
// before the registry is shared: mutations committed while no observer is
// attached are not replayed to a late observer — recover persisted state
// first, then observe (see store.Store.PersistRegistry).
func (r *Registry) Observe(o Observer) {
	if o == nil {
		r.observer.Store(nil)
		return
	}
	r.observer.Store(&o)
}

// Rev returns the registry's current revision — the high-water mark across
// all lineage mutations.  A consumer that has merged state up to Rev() r
// only needs lineages whose Lineage.Rev() exceeds r.
func (r *Registry) Rev() uint64 { return r.rev.Load() }

// Option configures a Registry.
type Option func(*Registry)

// WithDefaultPolicy sets the policy new lineages start with.
func WithDefaultPolicy(p Policy) Option {
	return func(r *Registry) { r.defaultPolicy = p }
}

// New creates an empty registry.
func New(opts ...Option) *Registry {
	r := &Registry{}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Lineage returns the named lineage or ErrUnknownLineage.
func (r *Registry) Lineage(name string) (*Lineage, error) {
	if l, ok := r.lineages.Load(name); ok {
		return l.(*Lineage), nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownLineage, name)
}

// Lineages returns the sorted lineage names.
func (r *Registry) Lineages() []string {
	var out []string
	r.lineages.Range(func(name, _ any) bool {
		out = append(out, name.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// Update is one lineage's share of a bulk apply: the mutations to replay
// onto it, in order.
type Update struct {
	Lineage   string
	Mutations []Mutation
}

// Apply replays already-admitted mutations onto many lineages at once — the
// path journal recovery, snapshot replay and gossip merges take.  The cost
// is linear in the batch: a lineage the registry does not have yet (an
// Update with no mutations still creates its lineage) joins the table in
// O(1), and each lineage's new history is built once and published with one
// atomic store (see Lineage.commit).  It returns the number of versions
// appended.
func (r *Registry) Apply(updates []Update) int {
	appended := 0
	for _, u := range updates {
		l := r.lineage(u.Lineage)
		l.mu.Lock()
		_, n := l.commit(u.Mutations, true)
		l.mu.Unlock()
		appended += n
	}
	return appended
}

// lineage returns the named lineage, creating it with the default policy if
// absent.
func (r *Registry) lineage(name string) *Lineage {
	if l, ok := r.lineages.Load(name); ok {
		return l.(*Lineage)
	}
	l := &Lineage{name: name, rev: &r.rev, observer: &r.observer}
	l.policy.Store(int32(r.defaultPolicy))
	l.snap.Store(&lineageSnap{byID: map[meta.FormatID]int{}})
	actual, _ := r.lineages.LoadOrStore(name, l)
	return actual.(*Lineage)
}

// Register appends a format to the named lineage (created with the default
// policy if new), enforcing the lineage's compatibility policy.
func (r *Registry) Register(lineage string, f *meta.Format, source string) (Version, error) {
	return r.lineage(lineage).Register(f, source)
}

// SetPolicy sets the named lineage's policy, creating the lineage if it
// does not exist yet (so a policy can be pinned before the first publish).
func (r *Registry) SetPolicy(lineage string, p Policy) error {
	return r.lineage(lineage).SetPolicy(p)
}

// Adopt appends an already-admitted format to the named lineage without a
// policy check (see Lineage.Adopt).
func (r *Registry) Adopt(lineage string, f *meta.Format, source string) (Version, error) {
	return r.lineage(lineage).Adopt(f, source)
}

// AdoptPolicy replaces the named lineage's policy without history
// validation (see Lineage.AdoptPolicy), creating the lineage if absent.
func (r *Registry) AdoptPolicy(lineage string, p Policy) {
	r.lineage(lineage).AdoptPolicy(p)
}
