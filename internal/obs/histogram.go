package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets.  Bucket i
// holds observations v (in nanoseconds) with bits.Len64(v) == i, i.e.
// 2^(i-1) <= v < 2^i; bucket 0 holds v == 0.  63 buckets cover every
// possible int64 nanosecond value (≈292 years), so recording never
// saturates or drops.
const histBuckets = 64

// Histogram is a fixed-size, lock-free latency histogram with nanosecond
// resolution and power-of-two buckets.  Recording is a pair of atomic adds;
// snapshots are consistent enough for monitoring (buckets are read one at a
// time, not under a lock).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Record adds one observation of ns nanoseconds (negative values clamp to
// zero).
func (h *Histogram) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.RecordN(ns, ns, 1)
}

// RecordN adds n non-negative observations that all fall in one power-of-two
// bucket — that of max, the largest of them — and total sum nanoseconds.  The
// histogram ends up exactly as n Record calls would leave it, for four
// atomic updates instead of 4n — the shape a batched caller wants, whose
// runs of observations mostly share a bucket.
func (h *Histogram) RecordN(sum, max, n int64) {
	if n <= 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(sum)
	for {
		old := h.max.Load()
		if max <= old || h.max.CompareAndSwap(old, max) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(max))].Add(n)
}

// Run folds a run of observations into as few histogram updates as their
// spread allows: consecutive observations that share a bucket become one
// RecordN.  The histogram ends up exactly as a Record per observation would
// leave it.  A Run is a stack value for one goroutine; Flush it when the run
// ends.
type Run struct {
	h           *Histogram
	bucket      int
	sum, max, n int64
}

// Run starts an empty run of observations for h.
func (h *Histogram) Run() Run { return Run{h: h} }

// Record adds one observation of ns nanoseconds (negative values clamp to
// zero) to the run.
func (r *Run) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if b := bits.Len64(uint64(ns)); b != r.bucket {
		r.Flush()
		r.bucket = b
	}
	r.sum += ns
	r.n++
	if ns > r.max {
		r.max = ns
	}
}

// Flush writes the pending observations to the histogram.
func (r *Run) Flush() {
	r.h.RecordN(r.sum, r.max, r.n)
	r.sum, r.max, r.n = 0, 0, 0
}

// Observe records a duration.
func (h *Histogram) Observe(d time.Duration) { h.Record(d.Nanoseconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations in nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation in nanoseconds.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the mean observation in nanoseconds (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an estimate of the q-th quantile (0 <= q <= 1) in
// nanoseconds.  The estimate is the geometric midpoint of the power-of-two
// bucket containing the quantile, so it is accurate to within a factor of
// √2 — plenty for latency monitoring, where order of magnitude is what
// matters.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == 0 {
				return 0
			}
			lo := float64(int64(1) << (i - 1))
			hi := lo * 2
			return math.Sqrt(lo * hi)
		}
	}
	return float64(h.max.Load())
}

// Snapshot is a point-in-time copy of a histogram's aggregate statistics.
type Snapshot struct {
	Count int64
	Sum   int64
	Max   int64
	Mean  float64
	P50   float64
	P90   float64
	P99   float64
}

// Snapshot returns the aggregate statistics of the histogram.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}
