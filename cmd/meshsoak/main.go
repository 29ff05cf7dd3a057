// Command meshsoak drives an exactly-once delivery check across a running
// broker mesh: it publishes a numbered event stream into one broker and
// verifies that steady subscribers attached through *other* brokers receive
// every event exactly once and in order.  The CI federation job boots three
// echod daemons and fails the build if meshsoak exits nonzero.
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
// The persistence check (a home broker restarted alone from its -store)
// is TestRestartRecovery in internal/daemon.
//
// Usage:
//
//	meshsoak -home 127.0.0.1:8801 -via 127.0.0.1:8811,127.0.0.1:8821 -n 5000 -subs 2 [-evolve 3 -pin]
//
// Every subscriber must observe the contiguous sequence 0..n-1: a gap is
// lost delivery, a repeat or regression is duplicated delivery, and either
// is a mesh correctness failure.
package main

import (
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
)

type subResult struct {
	broker string
	idx    int
	count  int
	err    error
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
	flag.Parse()

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

	// Events travel as records, so the stream can carry several format
	// versions; chain[0] is the v1 every pinned subscriber must keep
	// decoding.
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
			results <- receiveRecords(sc, addr, idx, *n, wantID)
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
	// With -evolve the publisher upgrades the format every n/len(chain)
	// events, mid-stream, driving the registry while events flow.
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
	// A policy rejection arrives asynchronously, after the offending format
	// frame; every version in the chain is additive, so any compat error
	// here is a soak failure.
	if err := pub.Status(200 * time.Millisecond); err != nil {
		log.Fatalf("meshsoak: publisher rejected: %v", err)
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
	if *evolve > 0 || *pin {
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

// receiveRecords drains one subscriber until it has seen n events, checking
// the sequence is exactly 0..n-1 and every event's val round-trips.  A
// negative seq is the pre-stream lineage probe and is skipped.  wantID, when nonzero, asserts every record decodes
// under that one format — the pinned-view contract: the wire evolves, the
// subscriber's view does not.
func receiveRecords(sc *echan.SubscriberConn, broker string, idx, n int, wantID meta.FormatID) subResult {
	res := subResult{broker: broker, idx: idx}
	defer sc.Close()
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
		if id := rec.Format().ID(); wantID != 0 && id != wantID {
			res.err = fmt.Errorf("seq %d decoded under %s, want pinned %s", seq, id, wantID)
			return res
		}
		want++
		res.count++
	}
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
	for {
		var info echan.LineageInfo
		c, err := echan.DialControl(addr)
		if err == nil {
			info, err = c.Lineage(channel)
			c.Close()
			if err == nil && len(info.VersionIDs) >= head {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("waiting for %s lineage head v%d on %s: at v%d (%v)", channel, head, addr, len(info.VersionIDs), err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
