package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// windowClock is a settable monotonic clock for window tests.
type windowClock struct {
	ns atomic.Int64
}

func (c *windowClock) now() time.Duration      { return time.Duration(c.ns.Load()) }
func (c *windowClock) advance(d time.Duration) { c.ns.Add(int64(d)) }
func (c *windowClock) set(d time.Duration)     { c.ns.Store(int64(d)) }

func newTestWindow(t *testing.T, clk *windowClock, span time.Duration, slots int) *WindowedHistogram {
	t.Helper()
	w, err := NewWindowedHistogram(clk.now, span, slots)
	if err != nil {
		t.Fatalf("NewWindowedHistogram: %v", err)
	}
	return w
}

func TestWindowedHistogramValidation(t *testing.T) {
	clk := &windowClock{}
	if _, err := NewWindowedHistogram(nil, time.Minute, 12); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := NewWindowedHistogram(clk.now, time.Minute, 1); err == nil {
		t.Fatal("single slot accepted")
	}
	if _, err := NewWindowedHistogram(clk.now, 5*time.Nanosecond, 12); err == nil {
		t.Fatal("sub-nanosecond slot width accepted")
	}
	w, err := NewWindowedHistogram(clk.now, time.Minute, 0)
	if err != nil {
		t.Fatalf("default slots: %v", err)
	}
	if got := len(w.slots); got != DefaultWindowBuckets {
		t.Fatalf("default slots = %d, want %d", got, DefaultWindowBuckets)
	}
	if w.Span() != time.Minute {
		t.Fatalf("Span = %v, want 1m", w.Span())
	}
}

// TestWindowedHistogramAgeOut proves old buckets leave the window as
// the injected clock advances (satellite: clock-injected age-out).
func TestWindowedHistogramAgeOut(t *testing.T) {
	clk := &windowClock{}
	w := newTestWindow(t, clk, time.Minute, 12) // 5s slots

	w.Observe(2 * time.Millisecond)
	w.Observe(3 * time.Millisecond)
	if s := w.Snapshot(); s.Count != 2 {
		t.Fatalf("fresh snapshot count = %d, want 2", s.Count)
	}

	// Still inside the window: half the span later the samples remain.
	clk.advance(30 * time.Second)
	w.Observe(4 * time.Millisecond)
	if s := w.Snapshot(); s.Count != 3 {
		t.Fatalf("mid-window snapshot count = %d, want 3", s.Count)
	}

	// Another 35s: the first two samples' slot (epoch 0) is now older
	// than the 60s window, only the 30s sample remains.
	clk.advance(35 * time.Second)
	s := w.Snapshot()
	if s.Count != 1 {
		t.Fatalf("aged snapshot count = %d, want 1", s.Count)
	}
	// 4ms lands in bucket [2^21, 2^22) ns: upper edge 2^22 ns ≈ 4.19ms.
	if q := s.Quantile(0.5); q != time.Duration(uint64(1)<<22) {
		t.Fatalf("aged p50 = %v, want %v", q, time.Duration(uint64(1)<<22))
	}

	// Far past the window: everything ages out.
	clk.advance(2 * time.Minute)
	if s := w.Snapshot(); s.Count != 0 {
		t.Fatalf("stale snapshot count = %d, want 0", s.Count)
	}

	// The ring is still usable after wrapping many epochs.
	w.Observe(time.Millisecond)
	if s := w.Snapshot(); s.Count != 1 {
		t.Fatalf("post-wrap snapshot count = %d, want 1", s.Count)
	}
}

// TestWindowedHistogramSlotReuse drives the clock through several full
// ring revolutions and checks rotation resets slot contents.
func TestWindowedHistogramSlotReuse(t *testing.T) {
	clk := &windowClock{}
	w := newTestWindow(t, clk, 12*time.Second, 12) // 1s slots
	for rev := 0; rev < 3; rev++ {
		for slot := 0; slot < 12; slot++ {
			w.Observe(time.Millisecond)
			clk.advance(time.Second)
		}
	}
	// Exactly one observation per live slot; the oldest epoch just
	// rotated out, so 11 or 12 remain depending on edge alignment.
	s := w.Snapshot()
	if s.Count < 11 || s.Count > 12 {
		t.Fatalf("snapshot count after reuse = %d, want 11..12", s.Count)
	}
}

// TestWindowedHistogramObserveAt checks that a caller-supplied reading
// places the sample in that instant's slot, exactly as Observe does at
// that instant, without reading the clock.
func TestWindowedHistogramObserveAt(t *testing.T) {
	clk := &windowClock{}
	w := newTestWindow(t, clk, 4*time.Second, 4)
	w.ObserveAt(0, time.Millisecond)
	clk.set(3 * time.Second)
	w.ObserveAt(clk.now(), time.Millisecond)
	if s := w.Snapshot(); s.Count != 2 {
		t.Fatalf("count = %d, want both samples inside the window", s.Count)
	}
	clk.set(4 * time.Second)
	if s := w.Snapshot(); s.Count != 1 {
		t.Fatalf("count = %d, want the t=0 sample aged out", s.Count)
	}
	var nilW *WindowedHistogram
	nilW.ObserveAt(0, time.Second) // must not panic
}

func TestHistogramSnapshotQuantileMean(t *testing.T) {
	var s HistogramSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty snapshot should report zero")
	}
	h := &Histogram{}
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond) // bucket upper edge 2^20 ns
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond) // bucket upper edge 2^27 ns
	}
	s = h.Snapshot()
	if got, want := s.Quantile(0.5), time.Duration(uint64(1)<<20); got != want {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
	if got, want := s.Quantile(0.99), time.Duration(uint64(1)<<27); got != want {
		t.Fatalf("p99 = %v, want %v", got, want)
	}
	// Snapshot quantiles must agree with the live estimator.
	if s.Quantile(0.99) != h.Quantile(0.99) {
		t.Fatal("snapshot and live p99 disagree")
	}
	if s.Mean() != h.Mean() {
		t.Fatal("snapshot and live mean disagree")
	}
}

// TestWindowedHistogramConcurrent hammers Observe/Snapshot from many
// goroutines while the clock advances, for the -race job (satellite:
// concurrent window hammer).
func TestWindowedHistogramConcurrent(t *testing.T) {
	clk := &windowClock{}
	w := newTestWindow(t, clk, 100*time.Millisecond, 4)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := time.Duration(g+1) * time.Millisecond
			for {
				select {
				case <-stop:
					return
				default:
				}
				w.Observe(d)
				clk.advance(7 * time.Microsecond)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			s := w.Snapshot()
			var sum int64
			for _, b := range s.Buckets {
				sum += b
			}
			// Totals can race ahead of bucket sums (documented), but a
			// snapshot must never fabricate samples wholesale.
			if sum < 0 || s.Count < 0 {
				t.Error("negative snapshot")
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if w.Snapshot().Count == 0 && clk.now() < 100*time.Millisecond {
		t.Fatal("no samples survived inside the window")
	}
}

// TestWindowedHistogramRolloverConcurrent forces epoch rotation to
// race: observers hammer the window while a driver goroutine jumps the
// clock across slot boundaries (including multi-span leaps that make
// every slot stale at once). The approximate contract allows samples
// to be *dropped* during rotation, but never duplicated or fabricated
// — a snapshot must not exceed the number of observations made, and
// after a quiet full span the window must drain to empty (satellite:
// rollover under concurrent observers, run under -race).
func TestWindowedHistogramRolloverConcurrent(t *testing.T) {
	clk := &windowClock{}
	const span = 80 * time.Nanosecond // 4 slots × 20ns: tiny widths maximize rotations
	w := newTestWindow(t, clk, span, 4)

	var observed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Counted before the observe so `observed` is always an
				// upper bound on samples the window can hold.
				observed.Add(1)
				w.Observe(time.Millisecond)
			}
		}()
	}
	// The driver walks the clock one slot width at a time, snapshotting
	// at every boundary, and every few steps leaps several spans ahead
	// so rotation has to reclaim slots stamped many epochs back.
	for step := 0; step < 400; step++ {
		if step%16 == 15 {
			clk.advance(3 * span)
		} else {
			clk.advance(span / 4)
		}
		s := w.Snapshot()
		if s.Count > observed.Load() {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot fabricated samples: count %d > observed %d", s.Count, observed.Load())
		}
		var sum int64
		for _, b := range s.Buckets {
			sum += b
		}
		if sum < 0 || s.Count < 0 {
			close(stop)
			wg.Wait()
			t.Fatalf("negative snapshot: sum=%d count=%d", sum, s.Count)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: a full span with no observations drains the window.
	clk.advance(2 * span)
	if s := w.Snapshot(); s.Count != 0 {
		t.Fatalf("window did not drain after a quiet span: count=%d", s.Count)
	}
	// And the ring is still usable after the storm.
	w.Observe(2 * time.Millisecond)
	if s := w.Snapshot(); s.Count != 1 || s.Sum != 2*time.Millisecond {
		t.Fatalf("post-storm observe lost: %+v", s)
	}
}

func TestEWMA(t *testing.T) {
	var nilE *EWMA
	nilE.Observe(time.Second) // must not panic
	if nilE.Value() != 0 {
		t.Fatal("nil EWMA should read zero")
	}

	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Fatal("unseeded EWMA should read zero")
	}
	e.Observe(100 * time.Millisecond)
	if e.Value() != 100*time.Millisecond {
		t.Fatalf("seed = %v, want 100ms", e.Value())
	}
	e.Observe(200 * time.Millisecond)
	if got := e.Value(); got != 150*time.Millisecond {
		t.Fatalf("after 0.5-blend = %v, want 150ms", got)
	}
	e.Observe(-time.Second) // clamps to zero
	if got := e.Value(); got != 75*time.Millisecond {
		t.Fatalf("after clamp-blend = %v, want 75ms", got)
	}

	// Default alpha path.
	d := NewEWMA(0)
	d.Observe(time.Second)
	d.Observe(2 * time.Second)
	want := time.Duration((1-DefaultEWMAAlpha)*float64(time.Second) + DefaultEWMAAlpha*float64(2*time.Second))
	if got := d.Value(); got != want {
		t.Fatalf("default alpha blend = %v, want %v", got, want)
	}
}

func TestEWMAConcurrent(t *testing.T) {
	e := NewEWMA(0.1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				e.Observe(time.Millisecond)
				_ = e.Value()
			}
		}()
	}
	wg.Wait()
	if got := e.Value(); got != time.Millisecond {
		t.Fatalf("constant stream EWMA = %v, want 1ms", got)
	}
}

func TestRegistryWindowFamily(t *testing.T) {
	clk := &windowClock{}
	reg := NewRegistry()
	w := newTestWindow(t, clk, time.Minute, 12)
	reg.Window("test_latency_window_seconds", "windowed latency", w)
	w.Observe(time.Millisecond)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_latency_window_seconds histogram",
		"test_latency_window_seconds_count 1",
		`test_latency_window_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}

	vars := reg.Vars()
	m, ok := vars["test_latency_window_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("vars entry = %T, want map", vars["test_latency_window_seconds"])
	}
	if m["count"].(int64) != 1 {
		t.Fatalf("vars count = %v, want 1", m["count"])
	}
	if m["window_ns"].(int64) != int64(time.Minute) {
		t.Fatalf("vars window_ns = %v", m["window_ns"])
	}

	// Aged-out windows expose empty families, not stale data.
	clk.advance(5 * time.Minute)
	var b2 strings.Builder
	if err := reg.WritePrometheus(&b2); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(b2.String(), "test_latency_window_seconds_count 0") {
		t.Fatalf("aged window should report count 0:\n%s", b2.String())
	}

	// Rebinding replaces the instrument (server rebuild idiom).
	w2 := newTestWindow(t, clk, time.Minute, 12)
	w2.Observe(2 * time.Millisecond)
	reg.Window("test_latency_window_seconds", "windowed latency", w2)
	m2, _ := reg.Vars()["test_latency_window_seconds"].(map[string]any)
	if m2["count"].(int64) != 1 {
		t.Fatalf("rebound vars count = %v, want 1", m2["count"])
	}
}

// TestWindowedHistogramCoverageAtLeastSpan pins the slot-width rounding
// bug: truncating span/slots made the ring cover less than the declared
// span whenever the division had a remainder, so a sample observed at
// t=0 aged out before span elapsed. Width must round up instead.
func TestWindowedHistogramCoverageAtLeastSpan(t *testing.T) {
	const span = 7 * time.Second
	for _, slots := range []int{3, 5, 7, 9, 11} {
		clk := &windowClock{}
		w := newTestWindow(t, clk, span, slots)
		if got := time.Duration(w.width) * time.Duration(slots); got < span {
			t.Fatalf("slots=%d: ring covers %v < span %v", slots, got, span)
		}
		w.Observe(time.Millisecond)
		clk.set(span - time.Nanosecond)
		if s := w.Snapshot(); s.Count != 1 {
			t.Fatalf("slots=%d: sample aged out %v before the span elapsed", slots, span)
		}
	}
}

// TestEWMASeeded covers the unseeded sentinel: an EWMA with no samples
// must say so, because Value()'s zero would otherwise rank an idle disk
// as the fastest replica.
func TestEWMASeeded(t *testing.T) {
	var nilE *EWMA
	if nilE.Seeded() {
		t.Fatal("nil EWMA reports seeded")
	}
	e := NewEWMA(0)
	if e.Seeded() {
		t.Fatal("fresh EWMA reports seeded")
	}
	if v := e.Value(); v != 0 {
		t.Fatalf("fresh EWMA value = %v, want 0", v)
	}
	// Even an all-zero sample seeds the estimate: "observed something
	// fast" and "observed nothing" must stay distinguishable.
	e.Observe(0)
	if !e.Seeded() {
		t.Fatal("EWMA unseeded after Observe(0)")
	}
	e2 := NewEWMA(0.5)
	e2.Observe(10 * time.Millisecond)
	if !e2.Seeded() {
		t.Fatal("EWMA unseeded after a sample")
	}
	if v := e2.Value(); v != 10*time.Millisecond {
		t.Fatalf("first sample should seed directly: %v", v)
	}
}
