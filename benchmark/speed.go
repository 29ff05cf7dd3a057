package main

import (
	"sort"
	"sync"
	"time"
)

// The speedometer.  The hosts this benchmark runs on change the speed of
// their cores in steps, several times a second, over a range of 1 : 1.27: a
// chain of dependent multiply-adds, a 256 KB copy loop and a 64-goroutine
// fan-out, run side by side on one thread, slow down and speed up together
// (r = 0.98-0.99), and the ratio of any two of them stays within 1 %.  So a
// goroutine times a short fixed chain every couple of milliseconds, and every
// time the benchmark reports is divided by what the chain took while it was
// measured: times are expressed at the reference speed at which one step of
// the chain takes refNsPerStep.  This works because everything runs on one
// thread (GOMAXPROCS 1, one CPU): the chain and the workload see the same
// core in the same state.
const (
	speedSteps   = 10000                // multiply-adds per reading, ~10 us
	speedEvery   = 2 * time.Millisecond // between readings
	refNsPerStep = 1.0                  // the reference speed
	speedSlackNs = 2 * int64(speedEvery)
)

type speedReading struct {
	at int64   // harness clock when the reading ended
	ns float64 // ns per step
}

var speedometer struct {
	once     sync.Once
	mu       sync.Mutex
	readings []speedReading // ascending by at
}

var speedSink uint64 // keeps the chain from being optimised away

// startSpeedometer starts the readings; it is safe to call more than once.
func startSpeedometer() {
	speedometer.once.Do(func() {
		takeSpeedReading()
		go func() {
			for {
				time.Sleep(speedEvery)
				takeSpeedReading()
			}
		}()
	})
}

func takeSpeedReading() {
	t0 := nowNs()
	x := uint64(t0) | 1
	for k := 0; k < speedSteps; k++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	t1 := nowNs()
	speedometer.mu.Lock()
	speedSink += x
	speedometer.readings = append(speedometer.readings, speedReading{at: t1, ns: float64(t1-t0) / speedSteps})
	speedometer.mu.Unlock()
}

// speedAt is the host's speed over the interval [from, to] of the harness
// clock, in units of the reference speed: the median reading of the interval
// (widened by two reading periods, so that an interval shorter than a period
// still finds one) over refNsPerStep.  A reading an interrupt landed in is
// far from the median and does not move it.  With no reading near the
// interval, the nearest one before it is used; with none at all, 1.
func speedAt(from, to int64) float64 {
	speedometer.mu.Lock()
	defer speedometer.mu.Unlock()
	r := speedometer.readings
	lo := sort.Search(len(r), func(i int) bool { return r[i].at >= from-speedSlackNs })
	hi := sort.Search(len(r), func(i int) bool { return r[i].at > to+speedSlackNs })
	if lo == hi {
		if len(r) == 0 {
			return 1
		}
		return r[max(lo-1, 0)].ns / refNsPerStep
	}
	ns := make([]float64, hi-lo)
	for i := range ns {
		ns[i] = r[lo+i].ns
	}
	return median(ns) / refNsPerStep
}
