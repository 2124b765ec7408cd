package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("test_gauge", "a gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("dup_total", "first")
	b := reg.Counter("dup_total", "second registration returns the first")
	if a != b {
		t.Fatal("re-registering the same counter returned a different instrument")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("instruments from repeated registration do not share state")
	}
}

func TestRegistrationKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("conflict", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering an existing name with a different kind did not panic")
		}
	}()
	reg.Gauge("conflict", "")
}

func TestInvalidNamePanics(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"", "1bad", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			reg.Counter(name, "")
		}()
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("node_requests_total", "requests").Add(3)
	reg.Gauge("node_memory_bytes", "staged bytes").Set(1 << 20)
	reg.GaugeFunc("node_time_seconds", "clock", func() float64 { return 1.5 })
	h := reg.Histogram("node_latency_seconds", "latency")
	h.Observe(1500 * time.Nanosecond) // bucket [1024, 2048) ns
	h.Observe(1500 * time.Nanosecond)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE node_requests_total counter",
		"node_requests_total 3",
		"# TYPE node_memory_bytes gauge",
		"node_memory_bytes 1.048576e+06",
		"node_time_seconds 1.5",
		"# TYPE node_latency_seconds histogram",
		`node_latency_seconds_bucket{le="+Inf"} 2`,
		"node_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Bucket lines are cumulative and end at the occupied bucket.
	if !strings.Contains(out, `node_latency_seconds_bucket{le="2.048e-06"} 2`) {
		t.Errorf("missing cumulative bucket for [1024,2048)ns in:\n%s", out)
	}
}

// TestWritePrometheusQuantiles checks the derived _quantiles gauge
// family emitted after each histogram (satellite: scrape-time p50/p95/
// p99 precomputation).
func TestWritePrometheusQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_latency_seconds", "latency")
	for i := 0; i < 99; i++ {
		h.Observe(1500 * time.Nanosecond) // bucket [1024, 2048) → upper edge 2048ns
	}
	h.Observe(3 * time.Millisecond) // bucket [2^21, 2^22)ns → upper edge ~4.19ms

	clk := &windowClock{}
	w := newTestWindow(t, clk, time.Second, 4)
	w.Observe(1500 * time.Nanosecond)
	reg.Window("q_window_seconds", "windowed latency", w)

	reg.Histogram("q_empty_seconds", "never observed")

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE q_latency_seconds_quantiles gauge",
		`q_latency_seconds_quantiles{quantile="0.5"} 2.048e-06`,
		`q_latency_seconds_quantiles{quantile="0.95"} 2.048e-06`,
		`q_latency_seconds_quantiles{quantile="0.99"} 2.048e-06`,
		"# TYPE q_window_seconds_quantiles gauge",
		`q_window_seconds_quantiles{quantile="0.99"} 2.048e-06`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// 100 samples: the p-th sample for p=0.99 is sample 99, still in the
	// low bucket; the straggler only surfaces at p=1.0 — but the slow
	// bucket must appear in the histogram itself.
	if !strings.Contains(out, `q_latency_seconds_bucket{le="0.004194304"} 100`) {
		t.Errorf("slow bucket missing in:\n%s", out)
	}
	// Empty histograms emit no quantile family (zero would read as
	// "instant", not "no data").
	if strings.Contains(out, "q_empty_seconds_quantiles") {
		t.Errorf("empty histogram emitted quantiles:\n%s", out)
	}
}

func TestGaugeFuncReplacement(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("replace_me", "", func() float64 { return 1 })
	reg.GaugeFunc("replace_me", "", func() float64 { return 2 })
	if v := reg.Vars()["replace_me"]; v != 2.0 {
		t.Fatalf("gauge func = %v, want the replacement's 2", v)
	}
}

func TestCounterFuncFoldsReplacedSources(t *testing.T) {
	reg := NewRegistry()
	first := int64(5)
	reg.CounterFunc("served_total", "served", func() int64 { return first })
	first = 7 // the first source keeps counting until it is replaced
	reg.CounterFunc("served_total", "served", func() int64 { return 3 })
	if v, ok := reg.Vars()["served_total"].(int64); !ok || v != 10 {
		t.Fatalf("counter func = %#v, want int64 10 (7 folded + 3 live)", reg.Vars()["served_total"])
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, "# TYPE served_total counter\nserved_total 10\n") {
		t.Fatalf("exposition:\n%s", out)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Nanosecond) // bucket [64,128)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Microsecond) // bucket [8192,16384)
	}
	if got := h.Quantile(0.5); got != 128 {
		t.Errorf("p50 = %v, want 128ns (bucket top)", got)
	}
	if got := h.Quantile(0.99); got != 16384 {
		t.Errorf("p99 = %v, want 16384ns (bucket top)", got)
	}
	if got := h.Quantile(0); got != 128 {
		t.Errorf("p0 = %v, want first occupied bucket top", got)
	}
}

func TestHistogramSaturation(t *testing.T) {
	var h Histogram
	h.Observe(time.Duration(math.MaxInt64))
	if got := h.Quantile(1); got != time.Duration(math.MaxInt64) {
		t.Fatalf("top-bucket quantile = %v, want MaxInt64 sentinel", got)
	}
	h.Observe(-5) // clamps to zero, bucket 0
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("p50 = %v, want bucket-0 top (2ns)", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	s := h.Snapshot()
	var inBuckets int64
	for _, c := range s.Buckets {
		inBuckets += c
	}
	if inBuckets != s.Count {
		t.Fatalf("buckets hold %d samples, count says %d", inBuckets, s.Count)
	}
}

func TestVars(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "").Add(2)
	reg.Histogram("h_seconds", "").Observe(time.Millisecond)
	vars := reg.Vars()
	if vars["c_total"] != int64(2) {
		t.Fatalf("c_total = %v, want 2", vars["c_total"])
	}
	hv, ok := vars["h_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("h_seconds var is %T, want map", vars["h_seconds"])
	}
	if hv["count"] != int64(1) {
		t.Fatalf("histogram count var = %v, want 1", hv["count"])
	}
}

// shiftLoopBucket is histBucketOf's former shift loop, kept as the
// reference the bits.Len64 form must match.
func shiftLoopBucket(d time.Duration) int {
	n := uint64(d)
	if n == 0 {
		return 0
	}
	b := 63
	for n&(1<<63) == 0 {
		n <<= 1
		b--
	}
	return b
}

func TestHistBucketOfMatchesShiftLoop(t *testing.T) {
	cases := []time.Duration{0, -1, 1, math.MaxInt64}
	for k := 1; k <= 62; k++ {
		p := time.Duration(1) << k
		cases = append(cases, p-1, p, p+1)
	}
	for _, d := range cases {
		if got, want := histBucketOf(d), shiftLoopBucket(d); got != want {
			t.Errorf("histBucketOf(%d) = %d, want %d", int64(d), got, want)
		}
	}
}
