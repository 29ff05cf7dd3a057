// Package core implements XMIT, the XML Metadata Integration Toolkit — the
// paper's primary contribution.
//
// A Toolkit is "loaded" with message definitions contained in XML Schema
// documents retrieved from one or more URLs (discovery).  Each document's
// complexType definitions enter a merged type space.  The toolkit then
// translates any loaded type into native metadata for a chosen binary
// communication mechanism: PBIO formats (Register/GenerateFormat), dynamic
// record types (NewRecord), or generated Go source (package gogen via
// GenerateGo).  Crucially, the translation output is indistinguishable from
// compiled-in metadata, so marshaling performance is unchanged; only format
// registration pays the XML parsing cost (the paper's Remote Discovery
// Multiplier): one pass over each schema document's tokens, with no element
// tree in between (see internal/xsd).
package core

import (
	"fmt"
	neturl "net/url"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/xsd"
)

// Toolkit is an XMIT instance: a repository of discovered metadata plus the
// translators that turn it into native BCM metadata.  A Toolkit is safe for
// concurrent use.
type Toolkit struct {
	repo    *discovery.Repository
	metrics *obs.Registry

	loadNS      *obs.Histogram // core_load_ns: LoadURL latency (fetch + parse + install)
	translateNS *obs.Histogram // core_translate_ns: XML type -> native metadata
	registerNS  *obs.Histogram // core_register_ns: native registration with the BCM

	mu        sync.RWMutex
	types     map[string]*xsd.ComplexType
	enums     map[string]*xsd.EnumType
	order     []string          // load order, for deterministic listings
	enumOrder []string          // enum load order
	sourceOf  map[string]string // type name -> URL it came from
}

// Option configures a Toolkit.
type Option func(*Toolkit)

// WithRepository substitutes the document repository used for URL loading
// (for example, one with a custom HTTP client).
func WithRepository(r *discovery.Repository) Option {
	return func(t *Toolkit) { t.repo = r }
}

// WithMetrics directs the toolkit's load/registration timings into reg
// instead of the process-wide obs.Default() registry.
func WithMetrics(reg *obs.Registry) Option {
	return func(t *Toolkit) { t.metrics = reg }
}

// NewToolkit creates an empty toolkit.
func NewToolkit(opts ...Option) *Toolkit {
	t := &Toolkit{
		metrics:  obs.Default(),
		types:    make(map[string]*xsd.ComplexType),
		enums:    make(map[string]*xsd.EnumType),
		sourceOf: make(map[string]string),
	}
	for _, o := range opts {
		o(t)
	}
	if t.repo == nil {
		t.repo = discovery.NewRepository(discovery.WithMetricsRegistry(t.metrics))
	}
	m := t.metrics
	t.loadNS = m.Histogram("core_load_ns")
	t.translateNS = m.Histogram("core_translate_ns")
	t.registerNS = m.Histogram("core_register_ns")
	// The registration-time share of the RDM: how many times more an
	// XML-discovered registration (translate + native register) costs than
	// a compiled-in one (native register alone).  The fetch share lives in
	// the repository's discovery_rdm gauge.
	m.RegisterFunc("core_register_multiplier", func() float64 {
		reg := t.registerNS.Mean()
		if reg == 0 {
			return 0
		}
		return (t.translateNS.Mean() + reg) / reg
	})
	return t
}

// Metrics returns the registry the toolkit reports into.
func (t *Toolkit) Metrics() *obs.Registry { return t.metrics }

// LoadURL retrieves the XML document at the URL (http://, https://, file://
// or a bare path) and loads its message definitions, returning the names of
// the complexTypes defined.  xsd:include references are resolved relative
// to the document's URL and loaded first (cycles are tolerated: each
// document loads once).
func (t *Toolkit) LoadURL(url string) ([]string, error) {
	start := time.Now()
	names, err := t.loadURL(url, map[string]bool{})
	if err == nil {
		t.loadNS.Observe(time.Since(start))
		t.metrics.Counter("core_load_total").Inc()
	}
	return names, err
}

func (t *Toolkit) loadURL(url string, visited map[string]bool) ([]string, error) {
	if visited[url] {
		return nil, nil
	}
	visited[url] = true
	data, err := t.repo.Fetch(url)
	if err != nil {
		return nil, err
	}
	schema, err := xsd.ParseBytes(data)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, inc := range schema.Includes {
		ref, err := resolveRef(url, inc)
		if err != nil {
			return nil, err
		}
		sub, err := t.loadURL(ref, visited)
		if err != nil {
			return nil, fmt.Errorf("core: include %q of %s: %w", inc, urlOr(url), err)
		}
		names = append(names, sub...)
	}
	own, err := t.install(schema, url)
	if err != nil {
		return nil, err
	}
	return append(names, own...), nil
}

// resolveRef resolves an include reference against the URL of the document
// containing it.
func resolveRef(base, ref string) (string, error) {
	if strings.HasPrefix(ref, "http://") || strings.HasPrefix(ref, "https://") ||
		strings.HasPrefix(ref, "file://") || strings.HasPrefix(ref, "/") {
		return ref, nil
	}
	switch {
	case strings.HasPrefix(base, "http://"), strings.HasPrefix(base, "https://"):
		u, err := neturl.Parse(base)
		if err != nil {
			return "", fmt.Errorf("core: bad base URL %q: %w", base, err)
		}
		r, err := neturl.Parse(ref)
		if err != nil {
			return "", fmt.Errorf("core: bad include reference %q: %w", ref, err)
		}
		return u.ResolveReference(r).String(), nil
	case strings.HasPrefix(base, "file://"):
		return "file://" + path.Join(path.Dir(strings.TrimPrefix(base, "file://")), ref), nil
	case base == "":
		return "", fmt.Errorf("core: inline documents may only include absolute references, got %q", ref)
	default:
		return path.Join(path.Dir(base), ref), nil
	}
}

// LoadString loads a schema document held in a string.
func (t *Toolkit) LoadString(s string) ([]string, error) {
	return t.loadBytes([]byte(s), "")
}

func (t *Toolkit) loadBytes(data []byte, url string) ([]string, error) {
	schema, err := xsd.ParseBytes(data)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, inc := range schema.Includes {
		ref, err := resolveRef(url, inc)
		if err != nil {
			return nil, err
		}
		sub, err := t.LoadURL(ref)
		if err != nil {
			return nil, fmt.Errorf("core: include %q: %w", inc, err)
		}
		names = append(names, sub...)
	}
	own, err := t.install(schema, url)
	if err != nil {
		return nil, err
	}
	return append(names, own...), nil
}

// install adds a document's definitions to the type space.  A document may
// replace definitions it installed before; any other redefinition must be
// identical, and an enumeration and a complexType never share a name.  The
// whole document is checked before anything is installed, so a rejected
// document leaves the type space as it was.
func (t *Toolkit) install(schema *xsd.Schema, url string) ([]string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range schema.Enums {
		if prev, ok := t.enums[e.Name]; ok && t.sourceOf[e.Name] != url {
			if !sameEnum(prev, e) {
				return nil, fmt.Errorf("core: enumeration %q from %q conflicts with definition from %q",
					e.Name, urlOr(url), urlOr(t.sourceOf[e.Name]))
			}
		}
		if _, ok := t.types[e.Name]; ok {
			return nil, fmt.Errorf("core: enumeration %q collides with a complexType", e.Name)
		}
	}
	for _, ct := range schema.Types {
		if prev, ok := t.types[ct.Name]; ok && t.sourceOf[ct.Name] != url {
			// A different document redefining the same type is a
			// configuration error; same-URL reloads replace.
			if !sameShape(prev, ct) {
				return nil, fmt.Errorf("core: type %q from %q conflicts with definition from %q",
					ct.Name, urlOr(url), urlOr(t.sourceOf[ct.Name]))
			}
		}
		if _, ok := t.enums[ct.Name]; ok {
			return nil, fmt.Errorf("core: complexType %q collides with an enumeration", ct.Name)
		}
	}
	for _, e := range schema.Enums {
		if _, ok := t.enums[e.Name]; !ok {
			t.enumOrder = append(t.enumOrder, e.Name)
		}
		t.enums[e.Name] = e
		t.sourceOf[e.Name] = url
	}
	var names []string
	for _, ct := range schema.Types {
		if _, ok := t.types[ct.Name]; !ok {
			t.order = append(t.order, ct.Name)
		}
		t.types[ct.Name] = ct
		t.sourceOf[ct.Name] = url
		names = append(names, ct.Name)
	}
	return names, nil
}

func sameEnum(a, b *xsd.EnumType) bool {
	if len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

func urlOr(u string) string {
	if u == "" {
		return "<inline>"
	}
	return u
}

func sameShape(a, b *xsd.ComplexType) bool {
	if len(a.Elements) != len(b.Elements) {
		return false
	}
	for i := range a.Elements {
		x, y := a.Elements[i], b.Elements[i]
		if *x != *y {
			return false
		}
	}
	return true
}

// RefreshURL revalidates a previously loaded URL against its origin and
// reinstalls its definitions when they changed, returning whether they did.
// This is how long-running components pick up centrally published format
// changes without recompilation.
func (t *Toolkit) RefreshURL(url string) (changed bool, names []string, err error) {
	data, changed, err := t.repo.Refresh(url)
	if err != nil {
		return false, nil, err
	}
	if !changed {
		return false, nil, nil
	}
	schema, err := xsd.ParseBytes(data)
	if err != nil {
		return true, nil, err
	}
	// The refreshed document replaces its own definitions, under the same
	// checks as a first load.
	names, err = t.install(schema, url)
	if err != nil {
		return true, nil, err
	}
	return true, names, nil
}

// Types returns the names of all loaded complexTypes in load order.
func (t *Toolkit) Types() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]string(nil), t.order...)
}

// Type returns the loaded complexType with the given name, or nil.
func (t *Toolkit) Type(name string) *xsd.ComplexType {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.types[name]
}

// Enum returns the loaded enumeration with the given name, or nil.
func (t *Toolkit) Enum(name string) *xsd.EnumType {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.enums[name]
}

// Enums returns the names of loaded enumerations in load order.
func (t *Toolkit) Enums() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]string(nil), t.enumOrder...)
}

// Source returns the URL a type was loaded from ("" for inline loads).
func (t *Toolkit) Source(name string) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sourceOf[name]
}

// BindingToken is the result of registering an XMIT-translated format with
// a BCM: the handle a program uses for all subsequent marshaling.
type BindingToken struct {
	// TypeName is the complexType the token was generated from.
	TypeName string
	// Format is the generated native metadata.
	Format *meta.Format
	// ID is the format's content-derived identifier.
	ID meta.FormatID
}

// Register translates the named complexType into PBIO metadata for the
// context's platform and registers it, returning a binding token.  This is
// the operation whose cost, relative to compiled-in registration, defines
// the paper's Remote Discovery Multiplier.
func (t *Toolkit) Register(typeName string, ctx *pbio.Context) (*BindingToken, error) {
	start := time.Now()
	f, err := t.GenerateFormat(typeName, ctx.Platform())
	if err != nil {
		return nil, err
	}
	t.translateNS.Observe(time.Since(start))
	start = time.Now()
	id, err := ctx.RegisterFormat(f)
	if err != nil {
		return nil, err
	}
	t.registerNS.Observe(time.Since(start))
	t.metrics.Counter("core_register_total").Inc()
	return &BindingToken{TypeName: typeName, Format: f, ID: id}, nil
}

// RegisterAll registers every loaded type, returning tokens keyed by type
// name.  Types that exist only as nested components register fine too.
func (t *Toolkit) RegisterAll(ctx *pbio.Context) (map[string]*BindingToken, error) {
	out := make(map[string]*BindingToken)
	for _, name := range t.Types() {
		tok, err := t.Register(name, ctx)
		if err != nil {
			return nil, err
		}
		out[name] = tok
	}
	return out, nil
}

// NewRecord materialises a dynamic record type for the named complexType on
// the given platform — run-time type extension without compiled code.
func (t *Toolkit) NewRecord(typeName string, p *platform.Platform) (*pbio.Record, error) {
	f, err := t.GenerateFormat(typeName, p)
	if err != nil {
		return nil, err
	}
	return pbio.NewRecord(f), nil
}

// Publish renders loaded types back into schema documents grouped by their
// source URL, the inverse of discovery (used by the metadata server tools).
func (t *Toolkit) Publish(typeNames []string, p *platform.Platform) (string, error) {
	if len(typeNames) == 0 {
		typeNames = t.Types()
	}
	s := &xsd.Schema{}
	seen := map[string]bool{}
	for _, name := range typeNames {
		f, err := t.GenerateFormat(name, p)
		if err != nil {
			return "", err
		}
		fs, err := xsd.FromFormat(f)
		if err != nil {
			return "", err
		}
		for _, ct := range fs.Types {
			if !seen[ct.Name] {
				seen[ct.Name] = true
				s.Types = append(s.Types, ct)
			}
		}
	}
	sort.SliceStable(s.Types, func(i, j int) bool {
		return depthOf(s, s.Types[i]) < depthOf(s, s.Types[j])
	})
	return s.String(), nil
}

// depthOf orders types so dependencies precede dependents.
func depthOf(s *xsd.Schema, ct *xsd.ComplexType) int {
	d := 0
	for _, el := range ct.Elements {
		if el.Ref != "" {
			if sub := s.TypeByName(el.Ref); sub != nil && sub != ct {
				if sd := depthOf(s, sub) + 1; sd > d {
					d = sd
				}
			}
		}
	}
	return d
}

// lookupType resolves a type name against the merged type space.
func (t *Toolkit) lookupType(name string) *xsd.ComplexType {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.types[name]
}
