package main

import (
	"math"
	"sort"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("p99 of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

// The "at least ten samples beyond it" rule: 1000 samples are the fewest
// that support a p99, so windows with fewer are merged until they have them.
func TestSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {100, 0.99, 1}, {20000, 0.99, 200}, {1000, 0.50, 500}, {0, 0.99, 0}} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	window := func(n int) []float64 { return make([]float64, n) }
	for _, c := range []struct {
		windows []int
		want    []int
	}{
		{[]int{20000, 20000, 20000}, []int{20000, 20000, 20000}}, // every window wide enough
		{[]int{800, 800, 800, 800, 800}, []int{1600, 2400}},      // merged in pairs, remainder joins the last
		{[]int{300, 300}, []int{600}},                            // too few in all: one short group
		{nil, nil},
	} {
		var ws [][]float64
		for _, n := range c.windows {
			ws = append(ws, window(n))
		}
		groups := groupForTail(ws, 0.99)
		var got []int
		for _, g := range groups {
			got = append(got, len(g))
		}
		if len(got) != len(c.want) {
			t.Errorf("windows %v grouped as %v, want %v", c.windows, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("windows %v grouped as %v, want %v", c.windows, got, c.want)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("even median = %v", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if sort.Float64sAreSorted(in) {
		t.Error("median sorted its argument")
	}
}

// Tail medians must shrug off one bad window: that is the reason the tail
// metrics are medians of per-window values.
func TestTailMediansResistOneBadWindow(t *testing.T) {
	const per = 1000
	windows := make([][]float64, 5)
	for w := range windows {
		for i := 0; i < per; i++ {
			v := 100 + float64(i)/per // 100.000 .. 100.999 in every window
			if w == 2 {
				v += 5000 // a stalled window
			}
			windows[w] = append(windows[w], v)
		}
	}
	windows = append(windows, make([]float64, 300)) // a short last window joins the one before
	ts := summarizeTails(groupForTail(windows, 0.99))
	if len(ts) != 5 || ts[0].N != per || ts[4].N != per+300 {
		t.Fatalf("tail windows %+v, want 5 with the short one merged into the last", ts)
	}
	p90, p99, beyond := tailMedians(ts)
	if math.Abs(p90-100.9) > 0.01 || math.Abs(p99-100.99) > 0.01 {
		t.Errorf("medians p90=%v p99=%v, want ~100.9 and ~100.99", p90, p99)
	}
	if beyond != minBeyond {
		t.Errorf("beyond=%d, want %d", beyond, minBeyond)
	}
}

// The quiet-slice statistic takes the value a tenth of the way in from the
// favourable end (a quarter with few slices), so one lucky slice cannot set
// it and slow slices cannot move it.
func TestFavourable(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(100 + i) // 100..149
	}
	if got := favourable(xs, false); got != 104 {
		t.Errorf("lower decile of 100..149 = %v, want 104", got)
	}
	if got := favourable(xs, true); got != 145 {
		t.Errorf("upper decile of 100..149 = %v, want 145", got)
	}
	slowed := append([]float64(nil), xs...)
	for i := 10; i < 50; i++ {
		slowed[i] *= 3 // four fifths of the slices disturbed
	}
	if got := favourable(slowed, false); got != 104 {
		t.Errorf("disturbed slices moved the lower decile to %v", got)
	}
	few := []float64{9, 1, 5, 7, 3, 8, 2, 6} // 8 values: quartile
	if got := favourable(few, false); got != 2 {
		t.Errorf("lower quartile of 8 = %v, want 2", got)
	}
	if got := favourable(few, true); got != 8 {
		t.Errorf("upper quartile of 8 = %v, want 8", got)
	}
	if favourable(nil, true) != 0 {
		t.Error("empty input")
	}
}
