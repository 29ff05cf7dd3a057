package echan

import (
	"sync"
	"sync/atomic"
)

// shard is a channel's fan-out stage: a bounded ring of published events
// drained by one worker goroutine that offers each popped run to every
// delivery sink of the channel.  The worker moves the O(sinks) fan-out work
// off the publisher's goroutine — publish costs one ring enqueue — and
// separate channels fan out on separate workers, so separate cores.
// Everything a channel feeds — local subscriptions, derived channels, mesh
// link subscribers — attaches here through the one deliverySink contract.
//
// The worker is also where a caught-up in-process Block subscriber's sink
// runs (Subscription.offerRun's direct drain): such an event crosses one
// hand-off, publisher → ring → sink.  Everything else — Drop subscribers,
// socket subscribers, Block subscribers that have fallen behind — is queued
// on the subscription and drained by its own writer goroutine.
//
// Ordering: the ring is FIFO and the worker offers events to its sinks in
// ring order, so per-sink FIFO delivery is preserved.  Backpressure is
// transitive: a Block-policy subscriber that is slow (caught up) or has a
// full queue (behind) holds the worker, the ring fills, and the publisher
// blocks on the next enqueue — lossless end to end, with bounded memory.
type shard struct {
	ch *Channel

	// sinks is the channel's delivery-sink set, mutated copy-on-write under
	// ch.mu and read lock-free by the worker.
	sinks atomic.Pointer[[]deliverySink]

	mu     sync.Mutex
	cond   sync.Cond
	ring   []*event
	head   int
	count  int
	busy   bool // worker is between pop and fan-out completion
	closed bool
	done   chan struct{}

	batch []*event // worker scratch: the ring slice popped per drain
	late  []*event // worker scratch: a run trimmed for a sink that attached inside it
}

func newShard(ch *Channel, ring int) *shard {
	sh := &shard{
		ch:    ch,
		ring:  make([]*event, ring),
		batch: make([]*event, 0, ring),
		late:  make([]*event, 0, ring),
		done:  make(chan struct{}),
	}
	sh.cond.L = &sh.mu
	empty := []deliverySink{}
	sh.sinks.Store(&empty)
	go sh.run()
	return sh
}

// enqueue hands one event to the shard, blocking while the ring is full
// (the transitive Block backpressure path).  The caller's reference is
// borrowed; the shard takes its own on acceptance and reports false once it
// is closed.
func (sh *shard) enqueue(ev *event) bool {
	sh.mu.Lock()
	for sh.count == len(sh.ring) && !sh.closed {
		sh.cond.Wait()
	}
	if sh.closed {
		sh.mu.Unlock()
		return false
	}
	ev.refs.Add(1)
	sh.ring[(sh.head+sh.count)%len(sh.ring)] = ev
	sh.count++
	sh.cond.Broadcast()
	sh.mu.Unlock()
	sh.ch.metrics.shardDepth.Add(1)
	return true
}

// run is the worker loop: pop every ready event, offer the whole run to
// each sink in turn (ring order per sink, so per-sink FIFO holds), release
// the shard's references.  Draining in runs is what feeds the vectored
// write path — a subscription handed N events at once delivers
// them as one WriteEvents, on this goroutine when it is caught up or from
// its queue when it is not.  On close the worker drains the ring, releasing
// undelivered events, and exits.
func (sh *shard) run() {
	defer close(sh.done)
	for {
		sh.mu.Lock()
		for sh.count == 0 && !sh.closed {
			sh.cond.Wait()
		}
		if sh.count == 0 { // closed and drained
			sh.mu.Unlock()
			return
		}
		n := sh.count
		batch := sh.batch[:0]
		for i := 0; i < n; i++ {
			batch = append(batch, sh.ring[sh.head])
			sh.ring[sh.head] = nil
			sh.head = (sh.head + 1) % len(sh.ring)
		}
		sh.count = 0
		closed := sh.closed
		sh.busy = true
		sh.cond.Broadcast()
		sh.mu.Unlock()

		if !closed {
			sh.fanOut(batch)
		}
		sh.ch.metrics.shardDepth.Add(-int64(n))
		for i, ev := range batch {
			ev.release()
			batch[i] = nil
		}

		sh.mu.Lock()
		sh.busy = false
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
}

// fanOut offers a run of events to every sink, one sink at a time so each
// sink sees the run whole (the shape the vectored write coalesces).
// Per-sink delivery order is the ring order, exactly as the
// one-event-at-a-time loop produced; cross-sink interleaving was never part
// of the contract.  A sink that attached after some of the run was
// published (gen <= attachGen) gets the run without those events: a
// mid-stream joiner sees only events published after its attach.  The
// shard's references are live for each offerRun; sinks that retain an event
// take their own (the deliverySink contract).
func (sh *shard) fanOut(evs []*event) {
	// Concurrent publishers may enqueue slightly out of generation order,
	// so the run's oldest generation is found, not assumed to be the first.
	oldest := evs[0].gen
	for _, ev := range evs[1:] {
		if ev.gen < oldest {
			oldest = ev.gen
		}
	}
	for _, snk := range *sh.sinks.Load() {
		ag := snk.attachGen()
		if ag < oldest {
			snk.offerRun(evs)
			continue
		}
		late := sh.late[:0]
		for _, ev := range evs {
			if ev.gen > ag {
				late = append(late, ev)
			}
		}
		if len(late) > 0 {
			snk.offerRun(late)
			clear(late)
		}
	}
}

// sync blocks until the ring is empty and no fan-out (direct deliveries
// included) is in flight.
func (sh *shard) sync() {
	sh.mu.Lock()
	for sh.count > 0 || sh.busy {
		sh.cond.Wait()
	}
	sh.mu.Unlock()
}

// close marks the shard closed and wakes the worker (and any blocked
// publisher).  The worker drains the ring and exits; wait on sh.done for
// that.
func (sh *shard) close() {
	sh.mu.Lock()
	sh.closed = true
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// addSink appends a sink to the fan-out set.  Callers hold ch.mu.
func (sh *shard) addSink(snk deliverySink) {
	old := *sh.sinks.Load()
	next := make([]deliverySink, len(old)+1)
	copy(next, old)
	next[len(old)] = snk
	sh.sinks.Store(&next)
}

// removeSink detaches a sink from the fan-out set, reporting whether it was
// present.  Callers hold ch.mu.
func (sh *shard) removeSink(snk deliverySink) bool {
	old := *sh.sinks.Load()
	next := make([]deliverySink, 0, len(old))
	found := false
	for _, o := range old {
		if o == snk {
			found = true
			continue
		}
		next = append(next, o)
	}
	if found {
		sh.sinks.Store(&next)
	}
	return found
}
