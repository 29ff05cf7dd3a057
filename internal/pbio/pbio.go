// Package pbio implements the binary communication mechanism (BCM) that the
// XMIT toolkit targets: a reproduction of PBIO, the Portable Binary I/O
// library (Eisenhauer & Daley, HCW 2000).
//
// PBIO's central idea is that the sender transmits data in (a close
// approximation of) its native memory layout — the fixed-size C struct image
// followed by a variable section holding string bytes and dynamic array
// elements, with pointer slots rewritten as offsets — and the *receiver*
// converts to its own representation ("receiver makes right").  A receiver
// compiles a conversion plan once per (wire format, native type) pair and
// then converts each message with a tight loop; homogeneous exchanges
// degenerate to near-copies.
//
// A Context holds registered formats, identified by content-derived 64-bit
// IDs (see meta.FormatID), plus cached encode bindings and decode plans.
// Formats may be registered from compiled-in field lists (RegisterFields,
// the classic PBIO API), from prebuilt metadata (RegisterFormat, the path
// XMIT uses), or resolved on demand from a format server via a
// FormatResolver.
package pbio

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/platform"
)

// FormatResolver supplies metadata for format IDs not registered locally —
// typically a format server client.
type FormatResolver interface {
	ResolveFormat(id meta.FormatID) (*meta.Format, error)
}

// Context is a PBIO instance: a registry of message formats plus the cached
// machinery to marshal and unmarshal them.  A Context is safe for concurrent
// use.
//
// The per-message lookups (format by ID, decode plan, binding, verified
// format) read copy-on-write maps through atomic pointers: a decode or
// encode in steady state takes no lock and allocates nothing.  Mutation
// (registration, first-use compilation) serialises on mu, copies the map,
// and publishes the copy.
type Context struct {
	wirePlatform *platform.Platform
	resolver     FormatResolver

	mu     sync.Mutex // serialises writers of the COW maps and byName
	byName map[string]*meta.Format

	byID     atomic.Pointer[map[meta.FormatID]*meta.Format]
	bindings atomic.Pointer[map[bindKey]*Binding]
	plans    atomic.Pointer[map[planKey]*decProg]
	lastPlan atomic.Pointer[decProg]                   // one-entry cache in front of plans
	verified atomic.Pointer[map[*meta.Format]struct{}] // formats that passed Validate
}

// cowInsert publishes a copy of *p's map with k=v added.  Callers must hold
// the owning Context's mu.
func cowInsert[K comparable, V any](p *atomic.Pointer[map[K]V], k K, v V) {
	old := *p.Load()
	next := make(map[K]V, len(old)+1)
	for ok, ov := range old {
		next[ok] = ov
	}
	next[k] = v
	p.Store(&next)
}

type bindKey struct {
	id meta.FormatID
	t  reflect.Type
}

// planKey keys decode plans by format pointer rather than format ID: a plan
// is compiled against one Format value, registered formats are
// pointer-stable and immutable, and the pointer is at hand on every decode
// without asking the format for anything.
type planKey struct {
	f *meta.Format
	t reflect.Type
}

// Option configures a Context.
type Option func(*Context)

// WithPlatform selects the simulated platform whose ABI determines the wire
// layout of formats registered through RegisterFields.  The default is
// x86_64.  This is how heterogeneity is exercised: build one context with
// platform.Sparc32 and another with platform.X8664 and exchange messages
// between them.
func WithPlatform(p *platform.Platform) Option {
	return func(c *Context) { c.wirePlatform = p }
}

// WithResolver installs a resolver consulted for unknown format IDs during
// decoding (typically a format server client).
func WithResolver(r FormatResolver) Option {
	return func(c *Context) { c.resolver = r }
}

// NewContext creates an empty PBIO context.
func NewContext(opts ...Option) *Context {
	c := &Context{
		wirePlatform: platform.X8664,
		byName:       make(map[string]*meta.Format),
	}
	c.byID.Store(&map[meta.FormatID]*meta.Format{})
	c.bindings.Store(&map[bindKey]*Binding{})
	c.plans.Store(&map[planKey]*decProg{})
	c.verified.Store(&map[*meta.Format]struct{}{})
	for _, o := range opts {
		o(c)
	}
	return c
}

// Platform returns the platform whose ABI shapes this context's native wire
// formats.
func (c *Context) Platform() *platform.Platform { return c.wirePlatform }

// RegisterFormat validates and installs prebuilt metadata, returning its
// content-derived ID.  Registering the same format twice is idempotent.
// This is the registration path XMIT uses after translating an XML Schema
// document.
func (c *Context) RegisterFormat(f *meta.Format) (meta.FormatID, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	// The canonical serialisation both fixes the format identity and is
	// what travels to peers and format servers.  Its hash is computed once
	// per format, the first time any context registers it, and memoised on
	// the format; the format is immutable from here on.
	id := f.ID()
	c.mu.Lock()
	defer c.mu.Unlock()
	// Same name with a different layout is allowed (format evolution);
	// the newest registration wins the name lookup, while both remain
	// reachable by ID.
	c.byName[f.Name] = f
	if _, ok := (*c.byID.Load())[id]; !ok {
		cowInsert(&c.byID, id, f)
	}
	if _, ok := (*c.verified.Load())[f]; !ok {
		cowInsert(&c.verified, f, struct{}{})
	}
	return id, nil
}

// checkFormat ensures f has passed meta.Format.Validate in this context,
// validating and caching on first sight.  Decode entry points call it so a
// corrupt or hostile format handed in directly (rather than through
// RegisterFormat) yields an error instead of a panic.  The fast path is a
// single lock-free map read.
func (c *Context) checkFormat(f *meta.Format) error {
	if f == nil {
		return fmt.Errorf("pbio: nil format")
	}
	if _, ok := (*c.verified.Load())[f]; ok {
		return nil
	}
	if err := f.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	if _, ok := (*c.verified.Load())[f]; !ok {
		cowInsert(&c.verified, f, struct{}{})
	}
	c.mu.Unlock()
	return nil
}

// IOField is one entry of a compiled-in PBIO field list, mirroring the C
// API's IOField struct.  Type uses the PBIO type language:
//
//	"integer" "unsigned integer" "float" "double" "char" "string"
//	"boolean" "enum"                            scalar primitives
//	"integer(8)"                                explicit wire size
//	"float[10]"                                 static array
//	"float[size]"                               dynamic array sized by
//	                                            the integer field "size"
//	"PointFormat"                               nested, previously
//	                                            registered format
type IOField struct {
	Name string
	Type string
}

// RegisterFields builds native metadata from a compiled-in field list using
// this context's platform ABI, registers it, and returns the format.  This
// is the classic PBIO registration path the paper's RDM baseline times.
func (c *Context) RegisterFields(name string, fields []IOField) (*meta.Format, error) {
	defs, err := c.parseFieldList(fields)
	if err != nil {
		return nil, fmt.Errorf("pbio: format %q: %w", name, err)
	}
	f, err := meta.Build(name, c.wirePlatform, defs)
	if err != nil {
		return nil, err
	}
	if _, err := c.RegisterFormat(f); err != nil {
		return nil, err
	}
	return f, nil
}

func (c *Context) parseFieldList(fields []IOField) ([]meta.FieldDef, error) {
	defs := make([]meta.FieldDef, 0, len(fields))
	for _, fl := range fields {
		def, err := c.parseFieldType(fl.Name, fl.Type)
		if err != nil {
			return nil, err
		}
		defs = append(defs, def)
	}
	return defs, nil
}

// parseFieldType parses one PBIO type string.
func (c *Context) parseFieldType(name, typ string) (meta.FieldDef, error) {
	def := meta.FieldDef{Name: name}
	typ = strings.TrimSpace(typ)

	// Array suffix: [n] or [fieldname].
	if i := strings.IndexByte(typ, '['); i >= 0 {
		if !strings.HasSuffix(typ, "]") {
			return def, fmt.Errorf("field %q: malformed array suffix in %q", name, typ)
		}
		dim := strings.TrimSpace(typ[i+1 : len(typ)-1])
		typ = strings.TrimSpace(typ[:i])
		if dim == "" {
			return def, fmt.Errorf("field %q: empty array dimension", name)
		}
		if n, err := strconv.Atoi(dim); err == nil {
			if n <= 0 {
				return def, fmt.Errorf("field %q: static dimension %d must be positive", name, n)
			}
			def.StaticDim = n
		} else {
			def.LengthField = dim
		}
	}

	// Explicit size suffix: (n).
	explicit := 0
	if i := strings.IndexByte(typ, '('); i >= 0 {
		if !strings.HasSuffix(typ, ")") {
			return def, fmt.Errorf("field %q: malformed size suffix in %q", name, typ)
		}
		n, err := strconv.Atoi(strings.TrimSpace(typ[i+1 : len(typ)-1]))
		if err != nil || n <= 0 {
			return def, fmt.Errorf("field %q: bad explicit size in %q", name, typ)
		}
		explicit = n
		typ = strings.TrimSpace(typ[:i])
	}

	switch typ {
	case "integer":
		def.Kind, def.Class = meta.Integer, platform.Int
	case "unsigned", "unsigned integer":
		def.Kind, def.Class = meta.Unsigned, platform.Int
	case "long":
		def.Kind, def.Class = meta.Integer, platform.Long
	case "unsigned long":
		def.Kind, def.Class = meta.Unsigned, platform.Long
	case "float":
		def.Kind, def.Class = meta.Float, platform.Float
	case "double":
		def.Kind, def.Class = meta.Float, platform.Double
	case "char":
		def.Kind, def.Class = meta.Char, platform.Char
	case "boolean":
		def.Kind, def.Class = meta.Boolean, platform.Bool
	case "enumeration", "enum":
		def.Kind, def.Class = meta.Enum, platform.Enum
	case "string":
		def.Kind = meta.String
		if explicit != 0 {
			return def, fmt.Errorf("field %q: string takes no explicit size", name)
		}
	default:
		// A previously registered format name => nested struct.
		sub := c.FormatByName(typ)
		if sub == nil {
			return def, fmt.Errorf("field %q: unknown type %q (nested formats must be registered first)", name, typ)
		}
		def.Kind, def.Sub = meta.Struct, sub
	}
	def.ExplicitSize = explicit
	return def, nil
}

// FormatByName returns the most recently registered format with the given
// name, or nil.
func (c *Context) FormatByName(name string) *meta.Format {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byName[name]
}

// FormatByID returns the registered format with the given ID, or nil.  It
// does not consult the resolver; see LookupFormat.  The lookup is lock-free
// (a COW map read), so it is safe on the per-message path.
func (c *Context) FormatByID(id meta.FormatID) *meta.Format {
	return (*c.byID.Load())[id]
}

// LookupFormat returns the format for an ID, consulting the resolver (and
// caching its answer) when the format is not registered locally.
func (c *Context) LookupFormat(id meta.FormatID) (*meta.Format, error) {
	if f := c.FormatByID(id); f != nil {
		return f, nil
	}
	if c.resolver == nil {
		return nil, fmt.Errorf("pbio: unknown format %s and no resolver configured", id)
	}
	f, err := c.resolver.ResolveFormat(id)
	if err != nil {
		return nil, fmt.Errorf("pbio: resolving format %s: %w", id, err)
	}
	if f.ID() != id {
		return nil, fmt.Errorf("pbio: resolver returned format %s for requested %s", f.ID(), id)
	}
	if _, err := c.RegisterFormat(f); err != nil {
		return nil, err
	}
	return f, nil
}

// Formats returns the names of all registered formats.
func (c *Context) Formats() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.byName))
	for n := range c.byName {
		names = append(names, n)
	}
	return names
}
