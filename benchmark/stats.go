package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to be trusted (choosing-metrics §1).
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice: the smallest value with at least p of the samples at or
// below it.  It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond is how many of n samples lie strictly above the p-quantile's
// nearest rank.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// median returns the middle value (mean of the middle two for even n) of an
// unsorted slice, which it does not modify.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the lower quartile, median and upper quartile
// (nearest rank) of an unsorted slice.
func quartiles(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return []float64{percentile(s, 0.25), median(s), percentile(s, 0.75)}
}

// favourable is the quiet-slice statistic.  What the speedometer cannot
// correct for — an interrupt, a neighbour on the host, a garbage collection —
// only ever slows a slice down, so a run is cut into many slices and the
// value reported is the one a tenth of the way in from the favourable end —
// the upper decile of throughputs, the lower decile of times — or a quarter
// of the way in when there are fewer than twenty slices to choose from.  On
// the socket workloads the median of the same slices had two to three times
// the run-to-run spread.
func favourable(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := 0.10
	if len(s) < 20 {
		p = 0.25
	}
	if higherIsBetter {
		return s[len(s)-rank(len(s), p)]
	}
	return s[rank(len(s), p)-1]
}

// tailStats is one tail window's latency summary.
type tailStats struct {
	N      int
	P90    float64
	P99    float64
	Beyond int // samples beyond P99
}

// groupForTail merges consecutive windows' samples until every group has
// enough of them for the p-quantile to have minBeyond samples beyond it
// (1000 for p99).  A short remainder joins the last group, so no sample is
// dropped; with too few samples in all there is one short group.
func groupForTail(windows [][]float64, p float64) [][]float64 {
	need := int(math.Ceil(float64(minBeyond)/(1-p) - 1e-9))
	var groups [][]float64
	var cur []float64
	for _, w := range windows {
		cur = append(cur, w...)
		if len(cur) >= need {
			groups, cur = append(groups, cur), nil
		}
	}
	if len(cur) > 0 {
		if len(groups) == 0 {
			return [][]float64{cur}
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
	}
	return groups
}

// summarizeTails reduces each tail window to its upper percentiles.
func summarizeTails(groups [][]float64) []tailStats {
	out := make([]tailStats, 0, len(groups))
	for _, g := range groups {
		xs := append([]float64(nil), g...)
		sort.Float64s(xs)
		out = append(out, tailStats{
			N:      len(xs),
			P90:    percentile(xs, 0.90),
			P99:    percentile(xs, 0.99),
			Beyond: samplesBeyond(len(xs), 0.99),
		})
	}
	return out
}

// tailMedians reduces tail windows to the reported metrics: the medians of
// their p90s and p99s, and the smallest number of samples any of them had
// beyond its p99.
func tailMedians(ts []tailStats) (p90, p99 float64, minBeyondSeen int) {
	if len(ts) == 0 {
		return 0, 0, 0
	}
	p90s := make([]float64, len(ts))
	p99s := make([]float64, len(ts))
	minBeyondSeen = math.MaxInt
	for i, t := range ts {
		p90s[i], p99s[i] = t.P90, t.P99
		minBeyondSeen = min(minBeyondSeen, t.Beyond)
	}
	return median(p90s), median(p99s), minBeyondSeen
}

// toFloats converts nanosecond durations for the float statistics.
func toFloats(xs []int64) []float64 {
	f := make([]float64, len(xs))
	for i, v := range xs {
		f[i] = float64(v)
	}
	return f
}

// medianOfInt64 is median over a slice of nanosecond durations.
func medianOfInt64(xs []int64) float64 { return median(toFloats(xs)) }

// p99OfInt64 is the nearest-rank p99 of nanosecond durations.
func p99OfInt64(xs []int64) float64 {
	f := toFloats(xs)
	sort.Float64s(f)
	return percentile(f, 0.99)
}
