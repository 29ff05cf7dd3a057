package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// latencyLimitNs is the end-to-end latency above which a delivered event
// still counts as a failed operation.  It separates "slow" from "broken", not
// fast from slow: on the recording host the hypervisor stalls the whole VM
// for 40-200 ms in about one run in five, and a limit inside that range
// failed runs of an unchanged program.
const latencyLimitNs = int64(time.Second)

// traceEvery is the sampling stride of the traced pass.
const traceEvery = 64

// failCounts are the verification failures behind `failed`; any non-zero
// value makes the run incorrect.
type failCounts struct {
	missing   atomic.Int64 // deliveries that never arrived (gaps in a subscriber's seq)
	repeated  atomic.Int64 // duplicate or out-of-order deliveries
	mismatch  atomic.Int64 // payload checksum, projection or document-hash mismatches
	overLimit atomic.Int64 // operations slower than latencyLimitNs
	errored   atomic.Int64 // operations that returned an error
}

func (f *failCounts) total() int64 {
	return f.missing.Load() + f.repeated.Load() + f.mismatch.Load() +
		f.overLimit.Load() + f.errored.Load()
}

func (f *failCounts) String() string {
	return fmt.Sprintf("missing=%d repeated=%d mismatch=%d over_limit=%d errored=%d",
		f.missing.Load(), f.repeated.Load(), f.mismatch.Load(), f.overLimit.Load(), f.errored.Load())
}

// sinkStamp is what one subscriber records about one traced event.
type sinkStamp struct {
	waitStart   int64 // TCP subscribers: RecvMessage called
	entry       int64 // sink entered (WriteEvents) or RecvMessage returned
	decodeStart int64
	decoded     int64
	verified    int64
}

// evTrace is the raw timestamps of one traced event; spans are built from
// it after the phase, off the measured path.
type evTrace struct {
	seq       uint64
	due       int64 // the generator turned to this event
	sendStart int64
	sendEnd   int64
	encodeNs  int64 // sibling measurement of Binding.EncodeTo / EncodeRecordBody on the same value
	recDecNs  int64 // sibling measurements of the pinned-view work on the head event
	projectNs int64
	recEncNs  int64
	tap       atomic.Int64 // mesh_hop: the event reached an in-process sink on the home broker
	sinks     []sinkStamp
}

// phaseState is what receivers need about a traced window.  It is
// immutable once published through harness.phase, except for the per-event
// slots, each of which has a single writer.  Event first+i*traceEvery owns
// traces[i]; events past the last slot are not traced (traces[i mod len]
// when ring is set, for windows whose traces are paid for but not kept).
type phaseState struct {
	first  uint64 // seq of the window's first event
	traces []evTrace
	ring   bool
}

// tracedPerWindow is the number of trace slots of a window whose traces are
// kept: the first tracedPerWindow*traceEvery events of the window are sampled.
const tracedPerWindow = 1024

func newPhaseState(h *harness, keep bool) *phaseState {
	ps := &phaseState{first: h.nextSeq, traces: make([]evTrace, tracedPerWindow), ring: !keep}
	for i := range ps.traces {
		ps.traces[i].sinks = make([]sinkStamp, len(h.recvs))
	}
	return ps
}

func (ps *phaseState) traceOf(seq uint64) *evTrace {
	if ps == nil || seq < ps.first {
		return nil
	}
	off := seq - ps.first
	if off%traceEvery != 0 {
		return nil
	}
	slot := off / traceEvery
	if ps.ring {
		slot %= uint64(len(ps.traces))
	} else if slot >= uint64(len(ps.traces)) {
		return nil
	}
	return &ps.traces[slot]
}

// harness is the state shared by a workload's generator and receivers.
type harness struct {
	seed    int64
	rng     *rand.Rand
	tracing bool // this run is the traced pass
	fails   failCounts
	phase   atomic.Pointer[phaseState]
	recvs   []*receiver
	nextSeq uint64 // next event to publish; generator goroutine only

	// Completion of a burst (see burst): the generator arms waitSeq with the
	// seq after the burst's last event and waitLeft with the number of
	// subscribers; the subscriber that verifies that event last stamps doneAt
	// and signals doneCh.  Subscribers are FIFO, so by then every event of
	// the burst has been verified by all of them.
	waitSeq  atomic.Uint64
	waitLeft atomic.Int32
	doneAt   int64
	doneCh   chan struct{}
	stalled  chan struct{} // closed when a window's deliveries are overdue

	depths []chanSample // channel counters with a burst in flight (traced burst windows)

	// sampled head records of the evolving lineage, for the projection
	// check (see evolve.go).
	headMu   sync.Mutex
	headRecs map[uint64]*headRec
}

// receiver is one subscriber's verification state.  Its methods run on the
// subscriber's single delivery goroutine.
type receiver struct {
	h        *harness
	idx      int
	next     uint64       // next seq expected: contiguous seq is FIFO + exactly-once
	received atomic.Int64 // events verified
	_        [40]byte     // keep neighbouring receivers' counters off one cache line
}

func (h *harness) newReceiver() *receiver {
	r := &receiver{h: h, idx: len(h.recvs)}
	h.recvs = append(h.recvs, r)
	return r
}

// expectTrace returns the trace slot of the event the receiver expects
// next, so stamps can be taken before the event is decoded.
func (r *receiver) expectTrace(ps *phaseState) *sinkStamp {
	if tr := ps.traceOf(r.next); tr != nil {
		return &tr.sinks[r.idx]
	}
	return nil
}

// observe accounts one decoded event: ordering, payload validity, and — for
// the subscriber that is last to verify the event a burst ends with — the
// burst's completion.
func (r *receiver) observe(seq uint64, valid bool) {
	switch {
	case seq == r.next:
		r.next++
	case seq > r.next:
		r.h.fails.missing.Add(int64(seq - r.next))
		r.next = seq + 1
	default:
		r.h.fails.repeated.Add(1)
	}
	if !valid {
		r.h.fails.mismatch.Add(1)
	}
	r.received.Add(1)
	if r.h.waitSeq.Load() == seq+1 && r.h.waitLeft.Add(-1) == 0 {
		r.h.doneAt = nowNs()
		r.h.doneCh <- struct{}{}
	}
}

// verifiedByAll is the number of events every subscriber has verified.
func (h *harness) verifiedByAll() int64 {
	low := int64(-1)
	for _, r := range h.recvs {
		if n := r.received.Load(); low < 0 || n < low {
			low = n
		}
	}
	return max(low, 0)
}

// drain waits until every subscriber has verified every published event.
// Deliveries still outstanding at the deadline are counted missing.
func (h *harness) drain(timeout time.Duration) {
	want := int64(h.nextSeq)
	deadline := time.Now().Add(timeout)
	for h.verifiedByAll() < want {
		if time.Now().After(deadline) {
			for _, r := range h.recvs {
				if short := want - r.received.Load(); short > 0 {
					h.fails.missing.Add(short)
				}
			}
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// attempted is the number of deliveries the run asked for.
func (h *harness) attempted() int64 {
	return int64(h.nextSeq) * int64(len(h.recvs))
}
