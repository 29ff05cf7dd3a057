package main

import (
	"fmt"
	"reflect"
	"sync"

	"github.com/open-metadata/xmit/internal/core"
	"github.com/open-metadata/xmit/internal/echan"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/registry"
	"github.com/open-metadata/xmit/internal/transport"
)

// eventValue is a decoded event the harness can verify.
type eventValue interface {
	seqNo() uint64
	valid() bool
}

func (s *Sample) seqNo() uint64 { return uint64(s.Seq) }
func (b *Block) seqNo() uint64  { return uint64(b.Seq) }
func (m *Metric) seqNo() uint64 { return m.Seq }

// chanSample is one reading of the measured channel's counters.
type chanSample struct {
	depth, shardDepth, blockWaits int64
}

// layerCounters are the public counters the traced pass reads once the run
// is over.
type layerCounters struct {
	wireBytes, wireMessages  int64 // publisher Conn.Stats
	formatsAnnounced         int64
	sinkWrites, delivered    float64 // echan obs counters of the measured channel
	viewProjected            float64
	pinnedDeliveries         float64
	linkGaps, linkReconnects int64
}

// topology is a built, warmed-up data-plane workload.
type topology struct {
	publish  func(seq uint64, tr *evTrace) error
	stats    func() chanSample
	counters func() layerCounters
	close    func()
	payload  int // bytes of event body, for payload_mb_per_s
}

// hsink is a harness subscriber attached in-process: the broker's own
// subscription goroutine calls it, so a run can be 64 subscribers wide
// without 64 load-generator goroutines.
type hsink struct {
	h   *harness
	r   *receiver
	ctx *pbio.Context
	out eventValue
	// pinned sinks check sampled frames against registry.Project.
	pinned *meta.Format
	// tap sinks only stamp arrival (mesh_hop's home-side reference point).
	tap bool
}

func (s *hsink) WriteFormat(frame []byte) error {
	if s.tap {
		return nil
	}
	f, err := meta.ParseCanonical(frame[transport.FrameHeaderSize:])
	if err != nil {
		return err
	}
	_, err = s.ctx.RegisterFormat(f)
	return err
}

func (s *hsink) WriteEvent(gen, head uint64, frame []byte) error {
	return s.WriteEvents([]uint64{gen}, head, [][]byte{frame})
}

func (s *hsink) WriteEvents(gens []uint64, _ uint64, frames [][]byte) error {
	ps := s.h.phase.Load()
	var entry int64
	if ps != nil {
		entry = nowNs()
	}
	if s.tap {
		// The channel is fresh and every event of the run goes through
		// it, so generation g carries seq g-1.
		for _, g := range gens {
			if tr := ps.traceOf(g - 1); tr != nil {
				tr.tap.Store(entry)
			}
		}
		return nil
	}
	for _, frame := range frames {
		s.one(ps, entry, frame)
	}
	return nil
}

// one decodes and verifies a single data frame.  Failures are counted, not
// returned: returning an error would detach the subscriber and hide every
// later event behind one bad one.
func (s *hsink) one(ps *phaseState, entry int64, frame []byte) {
	st := s.r.expectTrace(ps)
	if st != nil {
		st.entry, st.decodeStart = entry, nowNs()
	}
	id, body, err := pbio.ParseHeader(frame[transport.FrameHeaderSize:])
	var f *meta.Format
	if err == nil {
		f, err = s.ctx.LookupFormat(id)
	}
	if err == nil {
		err = s.ctx.DecodeBody(f, body, s.out)
	}
	if err != nil {
		s.h.fails.errored.Add(1)
		s.r.received.Add(1)
		return
	}
	if st != nil {
		st.decoded = nowNs()
	}
	ok := s.out.valid()
	if s.pinned != nil && ok {
		ok = f.ID() == s.pinned.ID() && s.h.checkProjection(s.ctx, s.out.seqNo(), s.pinned, body)
	}
	if st != nil {
		st.verified = nowNs()
	}
	s.r.observe(s.out.seqNo(), ok)
}

// runSubscriber is the receive loop of a DialSubscriber connection.
func (h *harness) runSubscriber(conn *echan.SubscriberConn, r *receiver, out eventValue) {
	ctx := conn.Context()
	for {
		var t0 int64
		if h.phase.Load() != nil {
			t0 = nowNs()
		}
		f, body, err := conn.RecvMessage()
		if err != nil {
			return // closed at teardown; a mid-run failure shows as missing events
		}
		ps := h.phase.Load()
		st := r.expectTrace(ps)
		if st != nil {
			st.entry = nowNs()
			st.waitStart, st.decodeStart = t0, st.entry
			if t0 == 0 {
				st.waitStart = st.entry
			}
		}
		err = ctx.DecodeBody(f, body, out)
		if st != nil {
			st.decoded = nowNs()
		}
		ok := err == nil && out.valid()
		if st != nil {
			st.verified = nowNs()
		}
		r.observe(out.seqNo(), ok)
	}
}

// headRec is a sampled head-version record kept until the pinned
// subscribers have compared their projected frames against it.
type headRec struct {
	rec  *pbio.Record
	left int
}

// checkProjection compares one pinned subscriber's frame, field for field,
// with registry.Project applied to the head record the publisher sent.
// Events the publisher did not sample pass unchecked.
func (h *harness) checkProjection(ctx *pbio.Context, seq uint64, pinned *meta.Format, body []byte) bool {
	h.headMu.Lock()
	hr := h.headRecs[seq]
	if hr != nil {
		if hr.left--; hr.left == 0 {
			delete(h.headRecs, seq)
		}
	}
	h.headMu.Unlock()
	if hr == nil {
		return true
	}
	got, err := ctx.DecodeRecordBody(pinned, body)
	if err != nil {
		return false
	}
	want, err := registry.Project(hr.rec, pinned)
	if err != nil {
		return false
	}
	for i := range pinned.Fields {
		name := pinned.Fields[i].Name
		g, _ := got.Get(name)
		w, _ := want.Get(name)
		if !reflect.DeepEqual(g, w) {
			return false
		}
	}
	return true
}

// discoverEvent runs the paper's pipeline for a publisher or subscriber
// that learns its event format from an XML Schema document: load, translate
// for the context's platform, register, bind to the Go type.
func discoverEvent(schema, typeName string, ctx *pbio.Context, sample any) (*pbio.Binding, error) {
	tk := core.NewToolkit(core.WithMetrics(obs.NewRegistry()))
	if _, err := tk.LoadString(schema); err != nil {
		return nil, err
	}
	tok, err := tk.Register(typeName, ctx)
	if err != nil {
		return nil, err
	}
	return ctx.Bind(tok.Format, sample)
}

// brokerNode is one in-process echan.Server on loopback.
type brokerNode struct {
	reg    *obs.Registry
	broker *echan.Broker
	srv    *echan.Server
	mesh   *echan.Mesh
	addr   string
}

func startBroker(opts ...echan.BrokerOption) (*brokerNode, error) {
	n := &brokerNode{reg: obs.NewRegistry()}
	n.broker = echan.NewBroker(append([]echan.BrokerOption{echan.WithRegistry(n.reg)}, opts...)...)
	n.srv = echan.NewServer(n.broker)
	addr, err := n.srv.Listen("127.0.0.1:0")
	if err != nil {
		n.broker.Close()
		return nil, err
	}
	n.addr = addr
	return n, nil
}

func (n *brokerNode) close() {
	if n.mesh != nil {
		n.mesh.Close()
	}
	n.srv.Close()
	n.broker.Close()
}

func (n *brokerNode) chanStats(name string) chanSample {
	ch, ok := n.broker.Get(name)
	if !ok {
		return chanSample{}
	}
	return sampleChannel(ch)
}

func sampleChannel(ch *echan.Channel) chanSample {
	st := ch.Stats()
	return chanSample{depth: st.Depth, shardDepth: st.ShardDepth, blockWaits: st.BlockWaits}
}

// chanCounter reads one of a channel's echan counters from the registry its
// broker publishes them in.
func chanCounter(reg *obs.Registry, channel, metric string) float64 {
	v, _ := reg.Value("echan_" + channel + "_" + metric)
	return v
}

// streamSpec describes a publisher -> broker(s) -> subscriber topology over
// loopback TCP.
type streamSpec struct {
	channel  string
	large    bool // 100 KB Block from a simulated sparc64 sender instead of the 100 B Sample
	viaMesh  bool // subscriber attaches to a second broker; the channel is homed on the first
	subQueue int
}

// buildStream builds the loopback-TCP topologies: stream_small,
// stream_large and mesh_hop.
func buildStream(h *harness, pl *payloads, spec streamSpec) (*topology, error) {
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	fail := func(err error) (*topology, error) {
		closeAll()
		return nil, err
	}

	var opts []echan.BrokerOption
	if spec.viaMesh {
		opts = append(opts, echan.WithDefaultRetain(1024))
	}
	home, err := startBroker(opts...)
	if err != nil {
		return nil, err
	}
	closers = append(closers, home.close)
	edge := home
	if spec.viaMesh {
		home.mesh = echan.NewMesh(home.broker, home.addr)
		home.srv.AttachMesh(home.mesh)
		if edge, err = startBroker(opts...); err != nil {
			return fail(err)
		}
		closers = append(closers, edge.close)
		edge.mesh = echan.NewMesh(edge.broker, edge.addr)
		edge.srv.AttachMesh(edge.mesh)
		edge.mesh.AddPeer(home.addr)
		home.mesh.Start()
		edge.mesh.Start()
	}
	homeCh, err := home.broker.Create(spec.channel)
	if err != nil {
		return fail(err)
	}

	// Sender and receiver each discover the format from the schema
	// document; the large stream's sender lays it out for a big-endian
	// LP64 machine and the receiver makes it right.
	typeName, valueType, sendPlat := "Sample", "xsd:float", platform.X8664
	var sendVal, recvVal any = &Sample{}, &Sample{}
	payload := 32 + 4*smallValues
	if spec.large {
		typeName, valueType, sendPlat = "Block", "xsd:double", platform.Sparc64
		sendVal, recvVal = &Block{}, &Block{}
		payload = 32 + 8*largeValues
	}
	schema := eventSchema(h.rng, typeName, valueType, 2)
	pubCtx := pbio.NewContext(pbio.WithPlatform(sendPlat))
	bind, err := discoverEvent(schema, typeName, pubCtx, sendVal)
	if err != nil {
		return fail(err)
	}
	subCtx := pbio.NewContext()
	if _, err := discoverEvent(schema, typeName, subCtx, recvVal); err != nil {
		return fail(err)
	}

	sub, err := echan.DialSubscriber(edge.addr, spec.channel, echan.Block, spec.subQueue, subCtx)
	if err != nil {
		return fail(err)
	}
	r := h.newReceiver()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.runSubscriber(sub, r, recvVal.(eventValue))
	}()
	closers = append(closers, func() { sub.Close(); wg.Wait() })

	if spec.viaMesh && h.tracing {
		// The traced pass needs a reference point on the home broker to
		// price the hop: an in-process sink that only stamps arrival.
		if _, err := homeCh.SubscribeSink(&hsink{h: h, tap: true}, echan.Block); err != nil {
			return fail(err)
		}
	}

	pub, err := echan.DialPublisher(home.addr, spec.channel, pubCtx)
	if err != nil {
		return fail(err)
	}
	closers = append(closers, func() { pub.Close() })

	var scratch []byte
	publish := func(seq uint64, tr *evTrace) error {
		if spec.large {
			pl.fillBlock(sendVal.(*Block), seq)
		} else {
			pl.fillSample(sendVal.(*Sample), seq)
		}
		if tr == nil {
			return pub.Send(bind, sendVal)
		}
		tr.sendStart = nowNs()
		err := pub.Send(bind, sendVal)
		tr.sendEnd = nowNs()
		if err == nil {
			// Send encodes inside itself; time the same encode of the
			// same value on its own, after the event is on its way.
			scratch, err = bind.EncodeTo(scratch[:0], sendVal)
			tr.encodeNs = nowNs() - tr.sendEnd
		}
		return err
	}
	return &topology{
		publish: publish,
		payload: payload,
		stats:   func() chanSample { return edge.chanStats(spec.channel) },
		counters: func() layerCounters {
			st := pub.Stats()
			c := layerCounters{
				wireBytes: st.BytesSent, wireMessages: st.MessagesSent, formatsAnnounced: st.FormatsAnnounced,
				sinkWrites: chanCounter(edge.reg, spec.channel, "sink_writes_total"),
				delivered:  chanCounter(edge.reg, spec.channel, "delivered_total"),
			}
			if edge.mesh != nil {
				for _, l := range edge.mesh.Links() {
					c.linkGaps += l.Gaps
					c.linkReconnects += l.Reconnects
				}
			}
			return c
		},
		close: closeAll,
	}, nil
}

// buildFanout builds fanout_wide: one in-process publisher, a broker with
// the defaults it ships with, 64 harness sinks under Block.
func buildFanout(h *harness, pl *payloads, width int) (*topology, error) {
	reg := obs.NewRegistry()
	broker := echan.NewBroker(echan.WithRegistry(reg))
	ch, err := broker.Create("fanout")
	if err != nil {
		broker.Close()
		return nil, err
	}
	schema := eventSchema(h.rng, "Sample", "xsd:float", 2)
	pubCtx := pbio.NewContext()
	var val Sample
	bind, err := discoverEvent(schema, "Sample", pubCtx, &val)
	if err != nil {
		broker.Close()
		return nil, err
	}
	for i := 0; i < width; i++ {
		s := &hsink{h: h, r: h.newReceiver(), ctx: pbio.NewContext(), out: &Sample{}}
		if _, err := ch.SubscribeSink(s, echan.Block); err != nil {
			broker.Close()
			return nil, err
		}
	}
	var scratch []byte
	publish := func(seq uint64, tr *evTrace) error {
		pl.fillSample(&val, seq)
		if tr == nil {
			return ch.Publish(bind, &val)
		}
		tr.sendStart = nowNs()
		err := ch.Publish(bind, &val)
		tr.sendEnd = nowNs()
		if err == nil {
			scratch, err = bind.EncodeTo(scratch[:0], &val)
			tr.encodeNs = nowNs() - tr.sendEnd
		}
		return err
	}
	return &topology{
		publish: publish,
		payload: 32 + 4*smallValues,
		stats:   func() chanSample { return sampleChannel(ch) },
		counters: func() layerCounters {
			return layerCounters{
				sinkWrites: chanCounter(reg, "fanout", "sink_writes_total"),
				delivered:  chanCounter(reg, "fanout", "delivered_total"),
			}
		},
		close: func() { broker.Close() },
	}, nil
}

// buildEvolve builds evolve_pinned: a lineage `steps` versions deep in the
// broker's schema registry, the publisher at the head, one subscriber at
// the head and `pinned` subscribers held at version 1.
func buildEvolve(h *harness, pl *payloads, steps, pinned int) (*topology, error) {
	chain, err := metricLineage(h.rng, platform.X8664, steps)
	if err != nil {
		return nil, err
	}
	sr := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	for _, f := range chain {
		if _, err := sr.Register("metric", f, "benchmark"); err != nil {
			return nil, err
		}
	}
	reg := obs.NewRegistry()
	broker := echan.NewBroker(echan.WithRegistry(reg), echan.WithSchemaRegistry(sr))
	ch, err := broker.Create("metric")
	if err != nil {
		broker.Close()
		return nil, err
	}
	v1, head := chain[0], chain[len(chain)-1]
	headSink := &hsink{h: h, r: h.newReceiver(), ctx: pbio.NewContext(), out: &Metric{}}
	if _, err := ch.SubscribeSink(headSink, echan.Block); err != nil {
		broker.Close()
		return nil, err
	}
	for i := 0; i < pinned; i++ {
		s := &hsink{h: h, r: h.newReceiver(), ctx: pbio.NewContext(), out: &Metric{}, pinned: v1}
		if _, err := ch.SubscribeVersionSink(s, echan.Block, 1); err != nil {
			broker.Close()
			return nil, err
		}
	}
	h.headRecs = map[uint64]*headRec{}

	// The publisher is a component that builds its events dynamically,
	// so the record encoder is part of this workload's bill.  The fields
	// later versions added keep one value for the whole run.
	ctx := pbio.NewContext()
	rec := pbio.NewRecord(head)
	for i := len(v1.Fields); i < len(head.Fields); i++ {
		if err := rec.Set(head.Fields[i].Name, int64(1000+i)); err != nil {
			broker.Close()
			return nil, err
		}
	}
	var msg []byte
	publish := func(seq uint64, tr *evTrace) error {
		k := seq % payloadKinds
		err := firstErr(
			rec.Set("seq", seq),
			rec.Set("sum", pl.bpad[k]^seqMix(seq)),
			rec.Set("value", metricValue(seq)),
			rec.Set("pad", pl.pad[k]),
		)
		if err != nil {
			return err
		}
		var t0 int64
		if tr != nil {
			t0 = nowNs()
		}
		msg = pbio.AppendHeader(msg[:0], head.ID())
		if msg, err = ctx.EncodeRecordBody(msg, rec); err != nil {
			return err
		}
		if seq%traceEvery == 0 {
			// Keep an independent copy of what was sent for the
			// pinned subscribers' projection check.
			sent, err := ctx.DecodeRecordBody(head, msg[pbio.HeaderSize:])
			if err != nil {
				return err
			}
			h.headMu.Lock()
			h.headRecs[seq] = &headRec{rec: sent, left: pinned}
			h.headMu.Unlock()
		}
		if tr == nil {
			return ch.PublishMessage(head, msg)
		}
		tr.sendStart = nowNs()
		tr.encodeNs = tr.sendStart - t0
		if err = ch.PublishMessage(head, msg); err != nil {
			return err
		}
		tr.sendEnd = nowNs()
		// Sibling measurements of what the broker does per pinned
		// delivery, on this very event, once it is on its way.
		drec, err := ctx.DecodeRecordBody(head, msg[pbio.HeaderSize:])
		if err != nil {
			return err
		}
		t2 := nowNs()
		prec, err := registry.Project(drec, v1)
		if err != nil {
			return err
		}
		t3 := nowNs()
		if _, err = ctx.EncodeRecordBody(nil, prec); err != nil {
			return err
		}
		tr.recDecNs, tr.projectNs, tr.recEncNs = t2-tr.sendEnd, t3-t2, nowNs()-t3
		return nil
	}
	return &topology{
		publish: publish,
		payload: head.Size,
		stats:   func() chanSample { return sampleChannel(ch) },
		counters: func() layerCounters {
			dl := chanCounter(reg, "metric", "delivered_total")
			return layerCounters{
				sinkWrites:       chanCounter(reg, "metric", "sink_writes_total"),
				delivered:        dl,
				viewProjected:    chanCounter(reg, "metric", "view_projected_total"),
				pinnedDeliveries: dl * float64(pinned) / float64(pinned+1),
			}
		},
		close: func() { broker.Close() },
	}, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// describe names a topology for error messages.
func describe(name string, err error) error {
	return fmt.Errorf("%s: %w", name, err)
}
