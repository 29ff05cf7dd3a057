// Package echan is the event-channel publish/subscribe layer: named
// channels that fan PBIO-encoded event streams out from publishers to many
// subscribers, layered on the transport wire format.
//
// This is the one-producer/many-consumer shape the paper's substrate was
// built to carry (PBIO underlies the authors' event-channel middleware):
// a sensor or solver publishes a stream of self-describing events, and any
// number of consumers — visualization clients, archivers, derived filters —
// attach and detach while the stream runs.  The design splits along the
// paper's axes:
//
//   - Marshaling: a publisher encodes each event exactly once, into a
//     pooled buffer framed for the transport wire format; the broker hands
//     the same ref-counted frame to every subscriber, so fan-out costs one
//     encode plus N queue operations and N writes, with zero per-event heap
//     allocations in steady state.
//   - Metadata: a channel remembers every format announced on it.  In
//     in-band mode a subscriber joining mid-stream receives the channel's
//     format announcements before its first data frame; in out-of-band
//     mode the broker registers formats with a configured registrar (a
//     format server) and subscribers resolve IDs through the
//     fmtserver/discovery path instead.
//   - Flow control: each subscriber owns a bounded queue with a selectable
//     backpressure policy — Block, DropOldest, or DropNewest — with
//     per-policy counters exported through internal/obs.
//
// Derived channels apply a server-side field filter, evaluated on decoded
// records, to a parent channel's stream; subscribers of the derived channel
// see only matching events (sharing the parent's frames — filtering adds a
// decode but no extra copy).
package echan

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/registry"
	"github.com/open-metadata/xmit/internal/transport"
)

// Policy selects what happens when a subscriber's queue is full.
type Policy int

const (
	// Block makes the publisher wait for queue space — lossless, at the
	// cost of coupling the publisher to the slowest subscriber.
	Block Policy = iota
	// DropOldest evicts the oldest queued event to admit the new one —
	// subscribers see the freshest data, the right policy for
	// visualization sinks.
	DropOldest
	// DropNewest rejects the incoming event for the full subscriber —
	// subscribers keep an uninterrupted prefix, the right policy when
	// later events depend on earlier ones.
	DropNewest
)

// String returns the policy's wire name (as used by the control protocol).
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop_oldest"
	case DropNewest:
		return "drop_newest"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a policy's wire name.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "block":
		return Block, nil
	case "drop_oldest", "dropoldest":
		return DropOldest, nil
	case "drop_newest", "dropnewest":
		return DropNewest, nil
	}
	return 0, fmt.Errorf("echan: unknown policy %q", s)
}

// Errors returned by the broker.
var (
	ErrChannelExists   = errors.New("echan: channel already exists")
	ErrNoChannel       = errors.New("echan: no such channel")
	ErrChannelClosed   = errors.New("echan: channel closed")
	ErrDerivedChannel  = errors.New("echan: derived channels cannot be published to directly")
	ErrDeriveOfDerived = errors.New("echan: cannot derive from a derived channel")
	// ErrResumeGap reports that a SubAfter resume point is no longer
	// covered by the channel's retention ring; the subscriber must
	// re-attach fresh and account the gap as loss.
	ErrResumeGap = errors.New("echan: resume position no longer retained")
	// ErrNoSchemaRegistry reports a version-pinned subscribe (or a
	// LINEAGE/POLICY verb) against a broker that has no schema registry
	// attached (see WithSchemaRegistry).
	ErrNoSchemaRegistry = errors.New("echan: no schema registry attached")
)

// Broker owns a set of named channels.  It is safe for concurrent use.
type Broker struct {
	ctx           *pbio.Context
	reg           *obs.Registry
	registrar     func(*meta.Format) error
	schemaReg     *registry.Registry
	defaultQueue  int
	defaultRetain int

	mu       sync.Mutex
	channels map[string]*Channel
	closed   bool
}

// BrokerOption configures a Broker.
type BrokerOption func(*Broker)

// WithRegistry selects the obs registry channel metrics are published to
// (default obs.Default()).
func WithRegistry(reg *obs.Registry) BrokerOption {
	return func(b *Broker) { b.reg = reg }
}

// WithContext supplies the broker's PBIO context, used to decode records
// for derived-channel filters and to resolve formats in out-of-band mode
// (give it a resolver for that).  A fresh context is created by default.
func WithContext(ctx *pbio.Context) BrokerOption {
	return func(b *Broker) { b.ctx = ctx }
}

// WithFormatRegistrar installs a callback invoked once per format first
// published on any channel — typically fmtserver.Client.Register (or the
// in-process Registry.Register), so out-of-band subscribers can resolve the
// stream's formats from the format server.
func WithFormatRegistrar(fn func(*meta.Format) error) BrokerOption {
	return func(b *Broker) { b.registrar = fn }
}

// WithSchemaRegistry attaches a schema registry: every format first
// published on a channel is appended to that channel's lineage, with the
// lineage's compatibility policy enforced — a publish whose format breaks
// the policy fails with a *registry.CompatError naming the offending
// fields, before any subscriber sees an event.  The registry also powers
// version-pinned subscriptions (SubscribeVersion, SUB version=<n>) and the
// LINEAGE/POLICY control verbs.
func WithSchemaRegistry(r *registry.Registry) BrokerOption {
	return func(b *Broker) { b.schemaReg = r }
}

// WithDefaultQueue sets the default per-subscriber queue length for
// channels created without an explicit one (default 64).
func WithDefaultQueue(n int) BrokerOption {
	return func(b *Broker) {
		if n > 0 {
			b.defaultQueue = n
		}
	}
}

// WithDefaultRetain sets the default retention depth (see WithRetain) for
// channels created without an explicit one.  A federated broker needs
// retention on every channel a mesh link may attach to, so cmd/echod sets
// this when peering is configured; the default is 0 (no retention).
func WithDefaultRetain(n int) BrokerOption {
	return func(b *Broker) {
		if n > 0 {
			b.defaultRetain = n
		}
	}
}

// NewBroker creates an empty broker.
func NewBroker(opts ...BrokerOption) *Broker {
	b := &Broker{
		channels:     make(map[string]*Channel),
		defaultQueue: 64,
	}
	for _, o := range opts {
		o(b)
	}
	if b.ctx == nil {
		b.ctx = pbio.NewContext()
	}
	if b.reg == nil {
		b.reg = obs.Default()
	}
	return b
}

// SchemaRegistry returns the attached schema registry, or nil.
func (b *Broker) SchemaRegistry() *registry.Registry { return b.schemaReg }

// validName reports whether a channel name is acceptable: non-empty, at
// most 128 bytes, drawn from [A-Za-z0-9_.-].
func validName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '.', c == '-':
		default:
			return false
		}
	}
	return true
}

// metricName maps a channel name onto the obs namespace: dots and dashes
// become underscores.
func metricName(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '.', '-':
			return '_'
		}
		return r
	}, name)
}

// Create adds a channel.  It fails with ErrChannelExists if the name is
// taken.
func (b *Broker) Create(name string, opts ...ChannelOption) (*Channel, error) {
	if !validName(name) {
		return nil, fmt.Errorf("echan: invalid channel name %q", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrChannelClosed
	}
	if _, ok := b.channels[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrChannelExists, name)
	}
	ch := newChannel(b, name, opts...)
	b.channels[name] = ch
	return ch, nil
}

// GetOrCreate returns the named channel, creating it with the given options
// if absent — the auto-create path the broker daemon uses for PUB/SUB of an
// unknown channel.
func (b *Broker) GetOrCreate(name string, opts ...ChannelOption) (*Channel, error) {
	if !validName(name) {
		return nil, fmt.Errorf("echan: invalid channel name %q", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrChannelClosed
	}
	if ch, ok := b.channels[name]; ok {
		return ch, nil
	}
	ch := newChannel(b, name, opts...)
	b.channels[name] = ch
	return ch, nil
}

// Get returns the named channel.
func (b *Broker) Get(name string) (*Channel, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch, ok := b.channels[name]
	return ch, ok
}

// Derive creates a channel fed by a parent channel's stream, narrowed by a
// field filter evaluated on each decoded event.  The derived channel shares
// the parent's format announcements and cannot be published to directly.
func (b *Broker) Derive(name, parent string, f *Filter, opts ...ChannelOption) (*Channel, error) {
	if !validName(name) {
		return nil, fmt.Errorf("echan: invalid channel name %q", name)
	}
	if f == nil {
		return nil, fmt.Errorf("echan: derive %s: nil filter", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrChannelClosed
	}
	p, ok := b.channels[parent]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoChannel, parent)
	}
	if p.parent != nil {
		return nil, fmt.Errorf("%w: %s", ErrDeriveOfDerived, parent)
	}
	if _, ok := b.channels[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrChannelExists, name)
	}
	ch := newChannel(b, name, opts...)
	ch.parent = p
	ch.filter = f
	ch.formats = p.formats // share the parent's announcement table
	ch.gen = p.gen         // and its publish generation (events carry parent gens)
	ch.oob = p.oob
	// The child consumes the parent's stream through the same delivery-sink
	// contract as any subscriber: a derivedSink on the parent's fan-out,
	// running the filter on the parent's worker goroutine.
	if err := p.attachChild(ch, &derivedSink{child: ch, gen: p.gen.Load()}); err != nil {
		ch.Close()
		return nil, err
	}
	b.channels[name] = ch
	return ch, nil
}

// Channels returns the channel names, unsorted.
func (b *Broker) Channels() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.channels))
	for n := range b.channels {
		out = append(out, n)
	}
	return out
}

// Close closes every channel (terminating their subscriptions) and refuses
// further creations.
func (b *Broker) Close() error {
	b.mu.Lock()
	b.closed = true
	chans := make([]*Channel, 0, len(b.channels))
	for _, ch := range b.channels {
		chans = append(chans, ch)
	}
	b.mu.Unlock()
	for _, ch := range chans {
		ch.Close()
	}
	return nil
}

// maxEventFrame is the broker's frame cap, matching the transport default.
const maxEventFrame = transport.DefaultMaxFrame
