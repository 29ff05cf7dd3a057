package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("hits"); again != c {
		t.Error("Counter is not get-or-create")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("n").Value(); v != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", v)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, ns := range []int64{100, 200, 400, 800, 100_000} {
		h.Record(ns)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 101_500 {
		t.Errorf("sum = %d", h.Sum())
	}
	if h.Max() != 100_000 {
		t.Errorf("max = %d", h.Max())
	}
	if m := h.Mean(); m != 101_500.0/5 {
		t.Errorf("mean = %g", m)
	}
	// The median observation is 400ns; the power-of-two bucket estimate
	// must land within a factor of two of it.
	if p50 := h.Quantile(0.5); p50 < 200 || p50 > 800 {
		t.Errorf("p50 = %g, want within [200, 800]", p50)
	}
	// p99 must land in the top bucket's range.
	if p99 := h.Quantile(0.99); p99 < 50_000 || p99 > 200_000 {
		t.Errorf("p99 = %g", p99)
	}
	h.Observe(2 * time.Microsecond)
	if h.Count() != 6 {
		t.Errorf("Observe did not record")
	}
	var zero Histogram
	if zero.Quantile(0.5) != 0 || zero.Mean() != 0 {
		t.Error("empty histogram quantile/mean should be 0")
	}
	zero.Record(-5)
	if zero.Sum() != 0 || zero.Count() != 1 {
		t.Error("negative observation should clamp to 0")
	}
}

// TestHistogramRunMatchesRecord: a run folded through Run leaves the
// histogram exactly as one Record per observation does — count, sum, max
// and every bucket — including bucket changes mid-run, a zero, a negative
// and a repeat of an earlier bucket.
func TestHistogramRunMatchesRecord(t *testing.T) {
	obsns := []int64{900, 700, 513, 512, 511, 300, 0, -4, 0, 70_000, 65_536, 600, 1, 1}
	var each, folded Histogram
	for _, ns := range obsns {
		each.Record(ns)
	}
	run := folded.Run()
	for _, ns := range obsns {
		run.Record(ns)
	}
	run.Flush()
	run.Flush() // an empty flush records nothing
	if each.Snapshot() != folded.Snapshot() {
		t.Errorf("snapshots differ:\n per event %+v\n per run   %+v", each.Snapshot(), folded.Snapshot())
	}
	for i := range each.buckets {
		if a, b := each.buckets[i].Load(), folded.buckets[i].Load(); a != b {
			t.Errorf("bucket %d: per event %d, per run %d", i, a, b)
		}
	}
}

func TestRegistryExports(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("b").Set(-1)
	r.Histogram("lat_ns").Record(1000)
	r.RegisterFunc("ratio", func() float64 { return 2.5 })

	var text strings.Builder
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a_total 3", "b -1", "lat_ns_count 1", "ratio 2.5"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text export missing %q:\n%s", want, text.String())
		}
	}

	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &m); err != nil {
		t.Fatalf("JSON export is not valid JSON: %v", err)
	}
	if m["a_total"].(float64) != 3 || m["ratio"].(float64) != 2.5 {
		t.Errorf("JSON export = %v", m)
	}
	hist, ok := m["lat_ns"].(map[string]any)
	if !ok || hist["count"].(float64) != 1 {
		t.Errorf("histogram JSON = %v", m["lat_ns"])
	}

	if v, ok := r.Value("a_total"); !ok || v != 3 {
		t.Errorf("Value(a_total) = %v, %v", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Error("Value of unregistered name should report !ok")
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), "x 1") {
		t.Errorf("text endpoint = %q", body[:n])
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}

	resp, err = ts.Client().Get(ts.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("json endpoint: %v", err)
	}
	resp.Body.Close()
	if m["x"].(float64) != 1 {
		t.Errorf("json endpoint = %v", m)
	}
}

func TestNamedRegistries(t *testing.T) {
	a := Named("test-a")
	b := Named("test-a")
	if a != b {
		t.Error("Named should return the same registry for the same name")
	}
	if Named("test-b") == a {
		t.Error("distinct names should yield distinct registries")
	}
	if Default() != Named("default") {
		t.Error("Default must be the registry named \"default\"")
	}
}

var expvarRuns atomic.Int64

// TestPublishExpvar: the daemons publish their registry on /debug/vars.  The
// published variable is live — it reads the metrics at each render, not a
// snapshot taken at publication.
func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Add(3)
	r.Histogram("request_ns").Record(1500)
	// expvar names are process-wide and cannot be unpublished, so each run
	// (go test -count=N) publishes under a fresh one.
	name := fmt.Sprintf("obs_test_registry_%d", expvarRuns.Add(1))
	PublishExpvar(name, r)

	read := func() map[string]any {
		t.Helper()
		v := expvar.Get(name)
		if v == nil {
			t.Fatal("registry not published")
		}
		var got map[string]any
		if err := json.Unmarshal([]byte(v.String()), &got); err != nil {
			t.Fatalf("expvar value is not JSON: %v", err)
		}
		return got
	}
	got := read()
	if got["requests_total"] != 3.0 {
		t.Errorf("requests_total = %v, want 3", got["requests_total"])
	}
	if h, ok := got["request_ns"].(map[string]any); !ok || h["count"] != 1.0 || h["max_ns"] != 1500.0 {
		t.Errorf("request_ns = %v, want count 1, max 1500", got["request_ns"])
	}
	c.Inc()
	if got := read(); got["requests_total"] != 4.0 {
		t.Errorf("after Inc, requests_total = %v, want 4", got["requests_total"])
	}
}
