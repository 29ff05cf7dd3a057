package bench

import (
	"fmt"
	"slices"
	"time"
)

// Options tunes measurement effort: how long each batch runs and how many
// rounds of batches a row's operations take turns in.
type Options struct {
	// BatchTime is the target wall time per measurement batch.
	BatchTime time.Duration
	// Batches is the number of rounds; each round runs one batch of every
	// operation in the row, and the medians over rounds are reported.
	Batches int
	// MinIters is the minimum iterations per batch.
	MinIters int
}

// DefaultOptions give stable numbers in a few seconds per figure.
func DefaultOptions() Options {
	return Options{BatchTime: time.Millisecond, Batches: 31, MinIters: 1}
}

// QuickOptions keep unit tests fast.
func QuickOptions() Options {
	return Options{BatchTime: 200 * time.Microsecond, Batches: 2, MinIters: 1}
}

func (o Options) normalize() Options {
	d := DefaultOptions()
	if o.BatchTime == 0 {
		o.BatchTime = d.BatchTime
	}
	if o.Batches == 0 {
		o.Batches = d.Batches
	}
	if o.MinIters == 0 {
		o.MinIters = d.MinIters
	}
	return o
}

// Op is one operation a figure times.  xmitbench's tables, the root
// package's testing.B families and TestPaperClaims all run the Ops that
// this package's fixture builders return, so each figure has one
// implementation.  An Op reuses its buffers between calls and is not safe
// for concurrent use.
type Op struct {
	Name  string // the sub-benchmark name, e.g. "Poc32/PBIO" or "XML/1KB"
	Bytes int    // payload bytes per call, for throughput; 0 for none
	Run   func() error
}

// Timing holds one row's operations timed in alternating rounds:
// Timing[r][i] is op i's mean time per call, in ns, over its batch in
// round r.  Every op of a round runs under the same machine conditions,
// so a per-round ratio cancels most of what a loaded host adds to both.
type Timing [][]float64

// Ns is op i's median time per call over the rounds.
func (t Timing) Ns(i int) float64 {
	return median(len(t), func(r int) float64 { return t[r][i] })
}

// Ratio is the median over rounds of op i's time divided by op j's.
func (t Timing) Ratio(i, j int) float64 {
	return median(len(t), func(r int) float64 { return t[r][i] / t[r][j] })
}

func median(n int, at func(int) float64) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = at(i)
	}
	slices.Sort(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// measure times a row's operations.  Each op is warmed up (which also
// surfaces its errors) and sized to about one BatchTime per batch; then
// every round runs one batch of each op, starting one op later each round
// so no op always runs first.  The first error aborts measurement.
func measure(o Options, ops []Op) (Timing, error) {
	o = o.normalize()
	iters := make([]int, len(ops))
	for i, op := range ops {
		// Double the run until it takes a quarter of BatchTime.
		for n := 1; iters[i] == 0; n *= 2 {
			ns, err := batch(op, n, 0)
			if err != nil {
				return nil, err
			}
			if ns*float64(n) >= float64(o.BatchTime)/4 {
				iters[i] = max(o.MinIters, int(float64(o.BatchTime)/ns))
			}
		}
	}
	t := make(Timing, o.Batches)
	for r := range t {
		t[r] = make([]float64, len(ops))
		for k := range ops {
			i := (r + k) % len(ops)
			ns, err := batch(ops[i], iters[i], o.BatchTime/2)
			if err != nil {
				return nil, err
			}
			t[r][i] = ns
		}
	}
	return t, nil
}

// batch runs op in runs of n calls until at least d has passed, and
// returns its mean time per call in ns.  A host stall during sizing makes
// n too small; the extra runs keep such a batch from shrinking to a few
// calls.
func batch(op Op, n int, d time.Duration) (float64, error) {
	calls := 0
	start := time.Now()
	for {
		for k := 0; k < n; k++ {
			if err := op.Run(); err != nil {
				return 0, fmt.Errorf("%s: %w", op.Name, err)
			}
		}
		calls += n
		if elapsed := time.Since(start); elapsed >= d {
			return float64(elapsed.Nanoseconds()) / float64(calls), nil
		}
	}
}
