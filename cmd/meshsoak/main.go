// Command meshsoak drives an exactly-once delivery check across a running
// broker mesh: it publishes a numbered event stream into one broker and
// verifies that steady subscribers attached through *other* brokers receive
// every event exactly once and in order, even while inter-broker links are
// being faulted.  The CI federation job boots three echod daemons, tears
// one link, and fails the build if meshsoak exits nonzero.
//
// With -evolve k, the publisher also upgrades the event format k times
// mid-stream (each version adds a field), driving the brokers' federated
// schema registry while events flow; brokers must run with a registry
// attached (echod -policy).  With -pin, one extra subscriber per broker
// pins lineage version 1 at SUB time — including through remote brokers,
// where the pinned view resolves from gossiped lineage state — and must
// decode the entire stream projected onto v1, bit-exactly, while the wire
// format evolves under it.
//
// With -restart, meshsoak instead drives the persistence check against a
// broker running with -store: "-restart seed" grows the channel's lineage,
// provokes a compatibility rejection of a deliberately broken head, and
// writes the lineage version IDs plus the rejection's JSON to the -state
// file; after the broker is killed and restarted, "-restart verify" demands
// the full lineage (bit-exact version IDs) from the very first directory
// answer — no gossip round, no remote fetch — re-submits the same broken
// head expecting a byte-identical rejection, and runs a fresh exactly-once
// stream through a v1-pinned subscriber resolved from the recovered lineage.
//
// Usage:
//
//	meshsoak -home 127.0.0.1:8801 -via 127.0.0.1:8811,127.0.0.1:8821 -n 5000 -subs 2 [-evolve 3 -pin]
//	meshsoak -home 127.0.0.1:8801 -restart seed   -state soak.json -evolve 3
//	meshsoak -home 127.0.0.1:8801 -restart verify -state soak.json -n 2000
//
// Every subscriber must observe the contiguous sequence 0..n-1: a gap is
// lost delivery, a repeat or regression is duplicated delivery, and either
// is a mesh correctness failure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/open-metadata/xmit/internal/echan"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/registry"
)

type event struct {
	Seq int32
	Val float64
}

type subResult struct {
	broker  string
	idx     int
	count   int
	formats int // distinct wire formats decoded (dynamic mode only)
	err     error
}

func main() {
	home := flag.String("home", "127.0.0.1:8801", "broker the channel is homed on (publish target)")
	via := flag.String("via", "", "comma-separated brokers to subscribe through (default: home only)")
	channel := flag.String("channel", "meshsoak", "channel name")
	n := flag.Int("n", 5000, "events to publish")
	subs := flag.Int("subs", 2, "subscribers per broker")
	queue := flag.Int("queue", 256, "subscriber queue length")
	timeout := flag.Duration("timeout", 60*time.Second, "overall deadline")
	evolve := flag.Int("evolve", 0, "upgrade the event format this many times mid-stream (needs echod -policy)")
	pin := flag.Bool("pin", false, "add a v1-pinned subscriber per broker (needs echod -policy)")
	restart := flag.String("restart", "", "restart-recovery mode: seed (grow lineage, record broken-head rejection) or verify (after broker restart; needs echod -store)")
	stateFile := flag.String("state", "meshsoak-state.json", "state file shared between -restart seed and -restart verify")
	flag.Parse()

	switch *restart {
	case "":
	case "seed":
		runRestartSeed(*home, *channel, *stateFile, *evolve)
		return
	case "verify":
		runRestartVerify(*home, *channel, *stateFile, *n, *queue)
		return
	default:
		log.Fatalf("meshsoak: -restart must be seed or verify, not %q", *restart)
	}

	brokers := []string{*home}
	for _, a := range strings.Split(*via, ",") {
		if a = strings.TrimSpace(a); a != "" {
			brokers = append(brokers, a)
		}
	}

	ctl, err := echan.DialControl(*home)
	if err != nil {
		log.Fatalf("meshsoak: %v", err)
	}
	if err := ctl.Create(*channel); err != nil {
		log.Fatalf("meshsoak: creating %s on %s: %v", *channel, *home, err)
	}

	// dynamic mode decodes via records instead of a fixed struct, so the
	// stream can carry several format versions; chain[0] is the v1 every
	// pinned subscriber must keep decoding.
	dynamic := *evolve > 0 || *pin
	chain := soakChain(*evolve + 1)

	// Attach every subscriber before the first publish: a steady subscriber
	// under the Block policy must then see the complete stream.  Dialing
	// through a remote broker returns only once that broker's link to the
	// home has attached, so there is no startup race to paper over.
	results := make(chan subResult, len(brokers)*(*subs+1))
	var wg sync.WaitGroup
	spawn := func(addr string, idx int, sc *echan.SubscriberConn, wantID meta.FormatID) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if dynamic {
				results <- receiveRecords(sc, addr, idx, *n, wantID)
			} else {
				results <- receive(sc, addr, idx, *n)
			}
		}()
	}
	for _, addr := range brokers {
		for i := 0; i < *subs; i++ {
			sc, err := echan.DialSubscriber(addr, *channel, echan.Block, *queue, pbio.NewContext())
			if err != nil {
				log.Fatalf("meshsoak: subscribing via %s: %v", addr, err)
			}
			spawn(addr, i, sc, 0)
		}
	}

	pub, err := echan.DialPublisherConn(*home, *channel, pbio.NewContext())
	if err != nil {
		log.Fatalf("meshsoak: %v", err)
	}

	if *pin {
		// Pinned views resolve against the channel's lineage, so v1 must be
		// registered before a pinned SUB: announce it with a pre-stream probe
		// (seq -1; receivers skip it), then attach one v1-pinned subscriber
		// through every broker.  Attaching through a remote broker exercises
		// the federated path: the view resolves from lineage state pulled off
		// the channel's home, not from anything the proxy has seen.
		probe := pbio.NewRecord(chain[0])
		mustSet(probe, "seq", -1)
		mustSet(probe, "val", 0.0)
		if err := pub.SendRecord(probe); err != nil {
			log.Fatalf("meshsoak: probe: %v", err)
		}
		if err := waitLineageHead(*home, *channel, 1, 10*time.Second); err != nil {
			log.Fatalf("meshsoak: %v", err)
		}
		for _, addr := range brokers {
			sc, err := echan.DialSubscriberVersion(addr, *channel, echan.Block, *queue, 1, pbio.NewContext())
			if err != nil {
				log.Fatalf("meshsoak: pinned subscribe via %s: %v", addr, err)
			}
			spawn(addr, *subs, sc, chain[0].ID())
		}
	}

	start := time.Now()
	if dynamic {
		// The publisher upgrades the format every n/len(chain) events,
		// mid-stream, driving the registry while events flow.
		for i := 0; i < *n; i++ {
			f := chain[i*len(chain)/(*n)]
			rec := pbio.NewRecord(f)
			mustSet(rec, "seq", i)
			mustSet(rec, "val", float64(i))
			for _, fl := range f.Fields[2:] {
				mustSet(rec, fl.Name, i)
			}
			if err := pub.SendRecord(rec); err != nil {
				log.Fatalf("meshsoak: publish %d: %v", i, err)
			}
		}
	} else {
		bind, err := pub.Context().Bind(mustFormat(pub.Context()), &event{})
		if err != nil {
			log.Fatalf("meshsoak: %v", err)
		}
		for i := 0; i < *n; i++ {
			if err := pub.Send(bind, &event{Seq: int32(i), Val: float64(i)}); err != nil {
				log.Fatalf("meshsoak: publish %d: %v", i, err)
			}
		}
	}
	if dynamic {
		// A policy rejection arrives asynchronously, after the offending
		// format frame; every version in the chain is additive, so any
		// compat error here is a soak failure.
		if err := pub.Status(200 * time.Millisecond); err != nil {
			log.Fatalf("meshsoak: publisher rejected: %v", err)
		}
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(*timeout):
		log.Fatalf("meshsoak: timed out after %v waiting for subscribers", *timeout)
	}
	close(results)

	failed := false
	for r := range results {
		status := "ok"
		if r.err != nil {
			status = r.err.Error()
			failed = true
		}
		fmt.Printf("meshsoak: sub %s#%d received %d/%d: %s\n", r.broker, r.idx, r.count, *n, status)
	}
	for _, addr := range brokers {
		c, err := echan.DialControl(addr)
		if err != nil {
			continue
		}
		if line, err := c.MeshLine(); err == nil {
			fmt.Printf("meshsoak: %s: %s\n", addr, line)
		}
		c.Close()
	}
	if dynamic {
		// Every broker's registry must converge on the full lineage — the
		// home decided it, gossip replicates it.  Brokers a pinned subscriber
		// attached through converged synchronously at SUB time; the rest get
		// it on a hello round.
		for _, addr := range brokers {
			if err := waitLineageHead(addr, *channel, len(chain), 20*time.Second); err != nil {
				fmt.Printf("meshsoak: lineage convergence on %s: %v\n", addr, err)
				failed = true
				continue
			}
			fmt.Printf("meshsoak: %s: lineage head v%d replicated\n", addr, len(chain))
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("meshsoak: %d events to %d subscribers on %d brokers in %v (%.0f events/s)\n",
		*n, len(brokers)**subs, len(brokers), elapsed.Round(time.Millisecond),
		float64(*n)/elapsed.Seconds())
	if failed {
		os.Exit(1)
	}
}

// receive drains one subscriber until it has seen n events, checking the
// sequence is exactly 0..n-1 — no gap, no repeat.
func receive(sc *echan.SubscriberConn, broker string, idx, n int) subResult {
	res := subResult{broker: broker, idx: idx}
	defer sc.Close()
	want := int32(0)
	for res.count < n {
		var ev event
		if _, err := sc.Recv(&ev); err != nil {
			res.err = fmt.Errorf("after %d events: %v", res.count, err)
			return res
		}
		if ev.Seq != want {
			if ev.Seq < want {
				res.err = fmt.Errorf("duplicate delivery: seq %d after %d", ev.Seq, want-1)
			} else {
				res.err = fmt.Errorf("lost delivery: seq jumped %d -> %d", want-1, ev.Seq)
			}
			return res
		}
		want++
		res.count++
	}
	return res
}

// receiveRecords drains one subscriber in dynamic (record) mode until it
// has seen n events, checking the sequence is exactly 0..n-1 and every
// event's val round-trips.  A negative seq is the pre-stream lineage probe
// and is skipped.  wantID, when nonzero, asserts every record decodes
// under that one format — the pinned-view contract: the wire evolves, the
// subscriber's view does not.
func receiveRecords(sc *echan.SubscriberConn, broker string, idx, n int, wantID meta.FormatID) subResult {
	res := subResult{broker: broker, idx: idx}
	defer sc.Close()
	seen := make(map[meta.FormatID]bool)
	want := int64(0)
	for res.count < n {
		rec, err := sc.RecvRecord()
		if err != nil {
			res.err = fmt.Errorf("after %d events: %v", res.count, err)
			return res
		}
		sv, ok := rec.Get("seq")
		if !ok {
			res.err = fmt.Errorf("record %d has no seq", res.count)
			return res
		}
		seq := sv.(int64)
		if seq < 0 {
			continue
		}
		if seq != want {
			if seq < want {
				res.err = fmt.Errorf("duplicate delivery: seq %d after %d", seq, want-1)
			} else {
				res.err = fmt.Errorf("lost delivery: seq jumped %d -> %d", want-1, seq)
			}
			return res
		}
		if v, ok := rec.Get("val"); !ok || v.(float64) != float64(seq) {
			res.err = fmt.Errorf("seq %d: val = %v, want %v", seq, v, float64(seq))
			return res
		}
		id := rec.Format().ID()
		if wantID != 0 && id != wantID {
			res.err = fmt.Errorf("seq %d decoded under %s, want pinned %s", seq, id, wantID)
			return res
		}
		seen[id] = true
		want++
		res.count++
	}
	res.formats = len(seen)
	return res
}

// soakChain builds the evolving event lineage: v1 is {seq, val}, each later
// version adds one integer field.  Every step is additive, so the chain
// satisfies the backward policy the CI federation daemons run under.
func soakChain(k int) []*meta.Format {
	defs := []meta.FieldDef{
		{Name: "seq", Kind: meta.Integer, Class: platform.LongLong},
		{Name: "val", Kind: meta.Float, Class: platform.Double},
	}
	chain := make([]*meta.Format, 0, k)
	for i := 0; i < k; i++ {
		if i > 0 {
			defs = append(defs, meta.FieldDef{
				Name: fmt.Sprintf("f%d", i), Kind: meta.Integer, Class: platform.Int,
			})
		}
		f, err := meta.Build("MeshSoakEvent", platform.X8664, defs)
		if err != nil {
			log.Fatalf("meshsoak: building format v%d: %v", i+1, err)
		}
		chain = append(chain, f)
	}
	return chain
}

func mustSet(rec *pbio.Record, name string, v any) {
	if err := rec.Set(name, v); err != nil {
		log.Fatalf("meshsoak: %v", err)
	}
}

// waitLineageHead polls a broker until the channel's lineage reports at
// least head versions — how the soak observes registration (on the home)
// and gossip replication (on every other broker).
func waitLineageHead(addr, channel string, head int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		c, err := echan.DialControl(addr)
		if err != nil {
			last = err
		} else {
			info, err := c.Lineage(channel)
			c.Close()
			if err == nil && len(info.VersionIDs) >= head {
				return nil
			}
			if err != nil {
				last = err
			} else {
				last = fmt.Errorf("lineage head v%d, want v%d", len(info.VersionIDs), head)
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("waiting for %s lineage head v%d on %s: %v", channel, head, addr, last)
}

// restartState is what "-restart seed" hands "-restart verify" across the
// broker kill: the lineage the broker must recover from disk (version IDs,
// oldest first) and the exact JSON of the compatibility error that rejected
// the broken head — verify demands both back bit-for-bit.
type restartState struct {
	Channel  string   `json:"channel"`
	Versions []string `json:"versions"`
	Compat   string   `json:"compat"`
}

// brokenHead builds the deliberately incompatible evolution: same fields as
// v1 but val's type changed from double to int.  A type change violates
// every policy above none, and both phases rebuild it deterministically so
// the broker is shown the identical bytes before and after its restart.
func brokenHead() *meta.Format {
	f, err := meta.Build("MeshSoakEvent", platform.X8664, []meta.FieldDef{
		{Name: "seq", Kind: meta.Integer, Class: platform.LongLong},
		{Name: "val", Kind: meta.Integer, Class: platform.Int},
	})
	if err != nil {
		log.Fatalf("meshsoak: building broken head: %v", err)
	}
	return f
}

// rejectBrokenHead publishes the broken head on the channel and returns the
// JSON of the *registry.CompatError the broker answers with.  Anything but
// a compat rejection is fatal — acceptance would mean the lineage history
// (or its policy) is gone.
func rejectBrokenHead(home, channel string) string {
	pub, err := echan.DialPublisherConn(home, channel, pbio.NewContext())
	if err != nil {
		log.Fatalf("meshsoak: %v", err)
	}
	defer pub.Close()
	rec := pbio.NewRecord(brokenHead())
	mustSet(rec, "seq", -1)
	mustSet(rec, "val", 0)
	if err := pub.SendRecord(rec); err != nil {
		log.Fatalf("meshsoak: publishing broken head: %v", err)
	}
	err = pub.Status(5 * time.Second)
	var ce *registry.CompatError
	if !errors.As(err, &ce) {
		log.Fatalf("meshsoak: broken head not rejected with a compat error (got %v)", err)
	}
	body, err := json.Marshal(ce)
	if err != nil {
		log.Fatalf("meshsoak: %v", err)
	}
	return string(body)
}

// runRestartSeed drives a -store broker through the state the restart check
// depends on: an evolved lineage, a policy decision rejecting a broken
// head.  It records the resulting lineage and rejection in the state file.
func runRestartSeed(home, channel, stateFile string, evolve int) {
	if evolve < 1 {
		evolve = 2
	}
	ctl, err := echan.DialControl(home)
	if err != nil {
		log.Fatalf("meshsoak: %v", err)
	}
	defer ctl.Close()
	if err := ctl.Create(channel); err != nil {
		log.Fatalf("meshsoak: creating %s on %s: %v", channel, home, err)
	}

	chain := soakChain(evolve + 1)
	pub, err := echan.DialPublisherConn(home, channel, pbio.NewContext())
	if err != nil {
		log.Fatalf("meshsoak: %v", err)
	}
	for _, f := range chain {
		rec := pbio.NewRecord(f)
		mustSet(rec, "seq", -1)
		mustSet(rec, "val", 0.0)
		for _, fl := range f.Fields[2:] {
			mustSet(rec, fl.Name, 0)
		}
		if err := pub.SendRecord(rec); err != nil {
			log.Fatalf("meshsoak: announcing v%d: %v", len(chain), err)
		}
	}
	if err := pub.Status(500 * time.Millisecond); err != nil {
		log.Fatalf("meshsoak: seeding lineage: %v", err)
	}
	pub.Close()
	if err := waitLineageHead(home, channel, len(chain), 10*time.Second); err != nil {
		log.Fatalf("meshsoak: %v", err)
	}

	info, err := ctl.Lineage(channel)
	if err != nil {
		log.Fatalf("meshsoak: %v", err)
	}
	st := restartState{Channel: channel}
	for _, id := range info.VersionIDs {
		st.Versions = append(st.Versions, meta.FormatID(id).String())
	}
	st.Compat = rejectBrokenHead(home, channel)

	buf, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		log.Fatalf("meshsoak: %v", err)
	}
	if err := os.WriteFile(stateFile, buf, 0o644); err != nil {
		log.Fatalf("meshsoak: %v", err)
	}
	fmt.Printf("meshsoak: seeded lineage %s to v%d, broken head rejected; state in %s\n",
		channel, len(st.Versions), stateFile)
}

// runRestartVerify checks a restarted -store broker against the seeded
// state: the full lineage must come back in the broker's *first* directory
// answer (the peers are down and nothing was re-published, so only local
// disk can supply it), the broken head must be re-rejected byte-identically,
// and a v1-pinned subscriber resolved from the recovered lineage must see a
// fresh stream exactly once.
func runRestartVerify(home, channel, stateFile string, n, queue int) {
	buf, err := os.ReadFile(stateFile)
	if err != nil {
		log.Fatalf("meshsoak: %v", err)
	}
	var st restartState
	if err := json.Unmarshal(buf, &st); err != nil {
		log.Fatalf("meshsoak: reading %s: %v", stateFile, err)
	}
	if st.Channel != "" {
		channel = st.Channel
	}

	// Retry only the dial (the broker may still be binding its port); the
	// first successful lineage answer is judged as-is.  Incomplete means
	// recovery failed — with no peers and no republish there is no second
	// chance that would not be cheating.
	var info echan.LineageInfo
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctl, err := echan.DialControl(home)
		if err == nil {
			info, err = ctl.Lineage(channel)
			ctl.Close()
			if err != nil {
				log.Fatalf("meshsoak: restarted broker has no lineage %s: %v", channel, err)
			}
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("meshsoak: dialing restarted broker %s: %v", home, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if len(info.VersionIDs) != len(st.Versions) {
		log.Fatalf("meshsoak: recovered lineage has %d versions, want %d", len(info.VersionIDs), len(st.Versions))
	}
	for i, id := range info.VersionIDs {
		if meta.FormatID(id).String() != st.Versions[i] {
			log.Fatalf("meshsoak: recovered v%d = %s, want %s", i+1, meta.FormatID(id), st.Versions[i])
		}
	}
	fmt.Printf("meshsoak: restarted broker served all %d lineage versions from disk, bit-exact\n", len(st.Versions))

	got := rejectBrokenHead(home, channel)
	if got != st.Compat {
		log.Fatalf("meshsoak: rejection drifted across restart:\n  before: %s\n  after:  %s", st.Compat, got)
	}
	fmt.Printf("meshsoak: broken head re-rejected with byte-identical compat error\n")

	// Fresh exactly-once stream through a v1-pinned subscriber: the pinned
	// view resolves from the recovered lineage, the wire carries the head
	// format, and the subscriber must decode 0..n-1 projected onto v1.
	chain := soakChain(len(st.Versions))
	head := chain[len(chain)-1]
	sc, err := echan.DialSubscriberVersion(home, channel, echan.Block, queue, 1, pbio.NewContext())
	if err != nil {
		log.Fatalf("meshsoak: pinned subscribe: %v", err)
	}
	pub, err := echan.DialPublisherConn(home, channel, pbio.NewContext())
	if err != nil {
		log.Fatalf("meshsoak: %v", err)
	}
	defer pub.Close()
	done := make(chan subResult, 1)
	go func() { done <- receiveRecords(sc, home, 0, n, chain[0].ID()) }()
	for i := 0; i < n; i++ {
		rec := pbio.NewRecord(head)
		mustSet(rec, "seq", i)
		mustSet(rec, "val", float64(i))
		for _, fl := range head.Fields[2:] {
			mustSet(rec, fl.Name, i)
		}
		if err := pub.SendRecord(rec); err != nil {
			log.Fatalf("meshsoak: publish %d: %v", i, err)
		}
	}
	if err := pub.Status(200 * time.Millisecond); err != nil {
		log.Fatalf("meshsoak: publisher rejected after restart: %v", err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			log.Fatalf("meshsoak: pinned subscriber after restart: %v", r.err)
		}
		fmt.Printf("meshsoak: pinned subscriber decoded %d/%d events exactly once under recovered v1\n", r.count, n)
	case <-time.After(60 * time.Second):
		log.Fatalf("meshsoak: timed out waiting for pinned subscriber")
	}
	fmt.Printf("meshsoak: restart recovery verified\n")
}

func mustFormat(ctx *pbio.Context) *meta.Format {
	f, err := ctx.RegisterFields("MeshSoakEvent", []pbio.IOField{
		{Name: "seq", Type: "integer"},
		{Name: "val", Type: "double"},
	})
	if err != nil {
		log.Fatalf("meshsoak: %v", err)
	}
	return f
}
