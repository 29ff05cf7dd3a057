package main

import (
	"syscall"
	"time"
)

// clockBase anchors the harness clock; nowNs is monotonic nanoseconds since
// process start, comparable across goroutines.
var clockBase = time.Now()

func nowNs() int64 { return int64(time.Since(clockBase)) }

// sliceStat is what one slice of a measurement window saw.  Slices end at
// operation boundaries, so no operation is split between two.
type sliceStat struct {
	start, end    int64   // harness clock, ns
	ops           int64   // operations completed in the slice
	userNs, sysNs int64   // process CPU spent in the slice
	speed         float64 // host speed while the slice ran, ns per step (see speed.go)
	latNs         []int64 // per operation, in windows that time operations one by one
}

// rate is the slice's operations per second at the reference speed.
func (s *sliceStat) rate() float64 {
	return float64(s.ops) * 1e9 / float64(s.end-s.start) * s.speed
}

// latenciesUs are the slice's per-operation latencies at the reference speed.
func (s *sliceStat) latenciesUs() []float64 {
	out := make([]float64, len(s.latNs))
	for i, ns := range s.latNs {
		out[i] = float64(ns) / 1e3 / s.speed
	}
	return out
}

// measure is the load generator: it runs op back to back — a closed loop of
// one caller, no timers, the CPU never idle — until `window` has passed or
// maxOps operations are done (0: no limit), and cuts that time into slices of
// about `slice` at operation boundaries.  op reports how many operations it
// completed and, for windows that keep latencies, how long the one it timed
// took.  A last slice shorter than half a slice is merged into the one
// before it.
func measure(window, slice time.Duration, maxOps int64, keepLat bool, op func() (n, latNs int64, err error)) ([]sliceStat, error) {
	var out []sliceStat
	start := nowNs()
	u0, s0 := cpuTimes()
	cur := sliceStat{start: start}
	for done := int64(0); ; {
		n, lat, err := op()
		if err != nil {
			return out, err
		}
		cur.ops, done = cur.ops+n, done+n
		if keepLat {
			cur.latNs = append(cur.latNs, lat)
		}
		now := nowNs()
		last := now-start >= int64(window) || (maxOps > 0 && done >= maxOps)
		if !last && now-cur.start < int64(slice) {
			continue
		}
		u1, s1 := cpuTimes()
		cur.end, cur.userNs, cur.sysNs = now, u1-u0, s1-s0
		if prev := len(out) - 1; last && prev >= 0 && now-cur.start < int64(slice)/2 {
			p := &out[prev]
			p.end, p.ops, p.userNs, p.sysNs = now, p.ops+cur.ops, p.userNs+cur.userNs, p.sysNs+cur.sysNs
			p.latNs = append(p.latNs, cur.latNs...)
			p.speed = speedAt(p.start, p.end)
		} else {
			cur.speed = speedAt(cur.start, cur.end)
			out = append(out, cur)
		}
		if last {
			return out, nil
		}
		cur, u0, s0 = sliceStat{start: now}, u1, s1
	}
}

// cpuTimes returns the process's user and system CPU time in nanoseconds.
func cpuTimes() (user, sys int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Utime.Nano(), ru.Stime.Nano()
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
