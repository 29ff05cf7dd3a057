package main

import (
	"errors"
	"testing"
	"time"
)

// The generator is a closed loop of one caller: operations run back to back,
// every one lands in exactly one slice, slices end at operation boundaries,
// and a stall is charged to the operation it hit and to no other.
func TestMeasureSlicesAtOperationBoundaries(t *testing.T) {
	const stallAt, stall = 40, 50 * time.Millisecond
	var n int
	var ends []int64
	slices, err := measure(300*time.Millisecond, 30*time.Millisecond, 0, true, func() (int64, int64, error) {
		t0 := nowNs()
		d := time.Millisecond
		if n == stallAt {
			d = stall
		}
		time.Sleep(d)
		n++
		ends = append(ends, nowNs())
		return 1, nowNs() - t0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var ops, lats int64
	for i, s := range slices {
		ops += s.ops
		lats += int64(len(s.latNs))
		if s.ops < 1 || s.end <= s.start || s.speed <= 0 {
			t.Errorf("slice %d: %+v", i, s)
		}
		if i > 0 && s.start != slices[i-1].end {
			t.Errorf("slice %d starts at %d, the one before ended at %d", i, s.start, slices[i-1].end)
		}
		if i < len(slices)-1 && time.Duration(s.end-s.start) < 30*time.Millisecond {
			t.Errorf("slice %d is only %v long", i, time.Duration(s.end-s.start))
		}
	}
	if ops != int64(n) || lats != int64(n) {
		t.Errorf("%d operations ran, slices hold %d and %d latencies", n, ops, lats)
	}
	if last := slices[len(slices)-1]; last.end < ends[n-1] || last.end > ends[n-1]+int64(time.Millisecond) {
		t.Error("the last slice does not end with the last operation")
	}
	if total := time.Duration(slices[len(slices)-1].end - slices[0].start); total < 300*time.Millisecond || total > 400*time.Millisecond {
		t.Errorf("window ran %v, want 300 ms and at most one operation more", total)
	}
	slow := 0
	for _, s := range slices {
		for _, ns := range s.latNs {
			if ns >= int64(stall) {
				slow++
			}
		}
	}
	if slow != 1 {
		t.Errorf("%d operations saw the stall, want the one it hit", slow)
	}
}

func TestMeasureStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	_, err := measure(time.Second, 100*time.Millisecond, 0, false, func() (int64, int64, error) {
		calls++
		if calls == 3 {
			return 0, 0, boom
		}
		return 1, 0, nil
	})
	if err != boom || calls != 3 {
		t.Errorf("err=%v after %d calls", err, calls)
	}
}

// Times are reported at the reference speed: a slice that ran while the host
// was slow reports the rate and the latencies it would have had at that speed.
func TestSlicesAreExpressedAtTheReferenceSpeed(t *testing.T) {
	s := sliceStat{start: 0, end: 1e9, ops: 1000, userNs: 3e8, sysNs: 1e8, speed: 1.25, latNs: []int64{10000}}
	if got := s.rate(); got != 1250 {
		t.Errorf("rate %v, want 1250", got)
	}
	if got := cpuPerOp([]sliceStat{s}, totalCPU); got[0] != 320 {
		t.Errorf("cpu per op %v us, want 320", got[0])
	}
	if got := s.latenciesUs(); got[0] != 8 {
		t.Errorf("latency %v us, want 8", got[0])
	}
}

// The speedometer's reading of an interval is the median of the readings in
// it, so one reading an interrupt landed in does not move it.
func TestSpeedAtIsTheMedianReadingOfTheInterval(t *testing.T) {
	speedometer.mu.Lock()
	saved := speedometer.readings
	speedometer.readings = nil
	for i := 0; i < 100; i++ {
		ns := 1.0
		if i >= 50 {
			ns = 1.25 // the host slowed down half way
		}
		if i == 20 || i == 70 {
			ns = 9 // interrupted readings
		}
		speedometer.readings = append(speedometer.readings, speedReading{at: int64(i) * 1e7, ns: ns})
	}
	speedometer.mu.Unlock()
	defer func() {
		speedometer.mu.Lock()
		speedometer.readings = saved
		speedometer.mu.Unlock()
	}()
	if got := speedAt(1e7, 40e7); got != 1 {
		t.Errorf("first half: %v, want 1", got)
	}
	if got := speedAt(60e7, 90e7); got != 1.25 {
		t.Errorf("second half: %v, want 1.25", got)
	}
	if got := speedAt(605e6, 606e6); got != 1.25 {
		t.Errorf("an interval between two readings: %v, want the neighbours' 1.25", got)
	}
	if got := speedAt(5e9, 6e9); got != 1.25 {
		t.Errorf("an interval after the last reading: %v, want the last reading's 1.25", got)
	}
}

func TestSpeedometerReads(t *testing.T) {
	startSpeedometer()
	t0 := nowNs()
	time.Sleep(30 * time.Millisecond)
	if got := speedAt(t0, nowNs()); got < 0.1 || got > 20 {
		t.Errorf("a multiply-add takes %v ns here", got)
	}
}

func TestMeasureStopsAtTheOperationLimit(t *testing.T) {
	slices, err := measure(time.Minute, time.Minute, 25, true, func() (int64, int64, error) { return 1, 7, nil })
	if err != nil || len(slices) != 1 || slices[0].ops != 25 || len(slices[0].latNs) != 25 {
		t.Errorf("err=%v slices=%+v, want one slice of 25 operations", err, slices)
	}
}
