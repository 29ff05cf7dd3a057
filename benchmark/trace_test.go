package main

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	var tr tracer
	root := tr.add("event", 0, 100, 0, 7)
	send := tr.add("transport.send", 10, 40, root, 7)
	tr.add("pbio.encode", 10, 25, send, 7)
	tr.add("echan.server_transit", 40, 90, root, 7)
	tr.add("echan.overlap", 80, 120, root, 7) // overlaps its sibling and overruns the root
	back := tr.add("backwards", 50, 30, root, 7)

	self := selfTimes(tr.spans)
	if self[root] != 10 { // children cover 10..100 once, overlap and overrun included
		t.Errorf("root self = %d, want 10", self[root])
	}
	if self[send] != 15 {
		t.Errorf("send self = %d, want 30-15", self[send])
	}
	if s := tr.spans[back-1]; s.End != s.Start {
		t.Errorf("a backwards interval must be recorded empty, got %d..%d", s.Start, s.End)
	}
	for id, ns := range self {
		if ns < 0 {
			t.Errorf("span %d negative self time %d", id, ns)
		}
	}
	_, layers := shares(tr.spans)
	if layers["pbio"] != 0.15 {
		t.Errorf("pbio share = %v, want 0.15", layers["pbio"])
	}
}

// One stalled operation is as long as a thousand ordinary ones; the stacked
// table is built from the typical operations, so the stall must not enter it.
func TestSharesLeaveOutTheSlowTenth(t *testing.T) {
	var tr tracer
	for ev := uint64(0); ev < 20; ev++ {
		base := int64(ev) * 1_000_000
		wait := int64(60)
		if ev == 7 {
			wait = 500_000 // the host stalled on this one
		}
		root := tr.add("event", base, base+wait+40, 0, ev)
		tr.add("echan.queue_wait", base, base+wait, root, ev)
		tr.add("pbio.decode", base+wait, base+wait+40, root, ev)
	}
	_, layers := shares(tr.spans)
	if got := layers["echan"]; got < 0.59 || got > 0.61 {
		t.Errorf("echan share %.3f, want 0.6: the stalled event entered the table", got)
	}
	if keep := typicalRoots(tr.spans); len(keep) != 19 {
		t.Errorf("%d of 20 roots kept, want the 19 that tie below the stalled one", len(keep))
	}
}

func TestWriteTraceRoundTrips(t *testing.T) {
	var tr tracer
	root := tr.add("event", 5, 50, 0, 3)
	tr.add("pbio.decode", 10, 20, root, 3)
	path, err := writeTrace(t.TempDir(), "unit", tr.spans)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[1] != tr.spans[1] {
		t.Errorf("read back %+v, wrote %+v", got, tr.spans)
	}
}
