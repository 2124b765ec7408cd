package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n. Negative n is ignored (counters are
// monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket
// i holds durations in [2^i, 2^(i+1)) nanoseconds, with bucket 0 also
// absorbing zero and sub-nanosecond observations.
const histBuckets = 64

// Histogram accumulates duration observations in power-of-two buckets
// (the same scheme as metrics.LatencySummary) with lock-free Observe,
// so it can replace ad-hoc summaries on concurrent paths.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration sample. Negative samples are clamped to
// zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[histBucketOf(d)].Add(1)
}

// histBucketOf returns ⌊log2 d⌋ in nanoseconds: 0 for zero, and 63
// for a negative d (read as its two's-complement bits).
func histBucketOf(d time.Duration) int {
	if d == 0 {
		return 0
	}
	return bits.Len64(uint64(d)) - 1
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average sample, or zero with no samples.
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Quantile returns an upper bound of the p-quantile (0 <= p <= 1): the
// top of the bucket containing the p-th sample. The top bucket, whose
// upper edge exceeds the duration range, reports MaxInt64.
//
// The bound is computed from a racy read of the buckets; under
// concurrent Observe it is approximate, which is the intended use
// (live exposition, not settlement).
func (h *Histogram) Quantile(p float64) time.Duration {
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(math.Ceil(p * float64(count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= target {
			// Bucket 62's upper edge is 2^63 ns, which overflows a
			// Duration; saturate to MaxInt64 from there up.
			if i >= 62 {
				return time.Duration(math.MaxInt64)
			}
			return time.Duration(uint64(1) << uint(i+1))
		}
	}
	return time.Duration(math.MaxInt64)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     time.Duration
	Buckets [histBuckets]int64
}

// Snapshot copies the histogram state. The copy is not atomic across
// buckets; totals can be momentarily ahead of the bucket sum under
// concurrent Observe.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindHistogram
	kindWindow
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindGaugeFunc:
		return "gauge (func)"
	case kindCounterFunc:
		return "counter (func)"
	case kindHistogram:
		return "histogram"
	case kindWindow:
		return "windowed histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// metric is one registered family.
type metric struct {
	name string
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
	win     *WindowedHistogram

	// cfn is a counter func's live source; base holds the last values
	// of the sources it replaced, so the family stays cumulative.
	cfn  func() int64
	base int64
}

// Registry holds named metric families and renders them for
// exposition. Registration is idempotent: asking for an existing name
// with the same kind returns the existing instrument, so repeated
// experiment cells (or server rebuilds) accumulate into one family.
// Asking for an existing name with a different kind panics — that is a
// programming error, caught at wiring time.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric //lint:guardedby mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// lookup returns the named metric, creating it with mk on first use.
func (r *Registry) lookup(name, help string, kind metricKind, mk func(*metric)) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s",
				name, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	mk(m)
	r.metrics[name] = m
	return m
}

// validName reports whether name matches the Prometheus metric name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.lookup(name, help, kindCounter, func(m *metric) { m.counter = &Counter{} })
	return m.counter
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.lookup(name, help, kindGauge, func(m *metric) { m.gauge = &Gauge{} })
	return m.gauge
}

// fnOf reads a gauge-func callback under the registry lock (the
// callback can be replaced by a later GaugeFunc registration).
func (r *Registry) fnOf(m *metric) func() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return m.fn
}

// GaugeFunc registers a gauge whose value is computed by fn at
// exposition time. Re-registering an existing name replaces the
// callback (last writer wins), so sequential simulation runs can
// rebind the family to the live engine. fn must be safe to call from
// the scraping goroutine; callers exposing single-threaded state
// (e.g. a simulation engine) must only scrape while that state is
// quiescent.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m := r.lookup(name, help, kindGaugeFunc, func(m *metric) {})
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// CounterFunc registers a counter whose value is computed by fn at
// exposition time, for sources that already keep the count (a server's
// Stats) so the hot path need not bump a second copy. Re-registering
// an existing name folds the previous fn's last value into the
// family's base and rebinds it to fn, so a family stays cumulative
// across sequential sources (experiment cells, server rebuilds over
// one registry). fn must be safe to call from the scraping goroutine
// and must not touch the registry.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	m := r.lookup(name, help, kindCounterFunc, func(m *metric) {})
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.cfn != nil {
		m.base += m.cfn()
	}
	m.cfn = fn
}

// counterOf reads a counter func's value: the folded base plus the
// live source, called outside the registry lock.
func (r *Registry) counterOf(m *metric) int64 {
	r.mu.Lock()
	base, fn := m.base, m.cfn
	r.mu.Unlock()
	return base + fn()
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	m := r.lookup(name, help, kindHistogram, func(m *metric) { m.hist = &Histogram{} })
	return m.hist
}

// winOf reads a windowed-histogram binding under the registry lock
// (the instrument can be replaced by a later Window registration).
func (r *Registry) winOf(m *metric) *WindowedHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return m.win
}

// Window registers a caller-built windowed histogram under name.
// Unlike Histogram the registry cannot construct the instrument (it
// needs an injected clock), so the caller supplies it; re-registering
// an existing name rebinds the family to the new instrument (last
// writer wins, mirroring GaugeFunc), so sequential server rebuilds
// expose the live window.
func (r *Registry) Window(name, help string, w *WindowedHistogram) {
	m := r.lookup(name, help, kindWindow, func(m *metric) {})
	r.mu.Lock()
	m.win = w
	r.mu.Unlock()
}

// Names returns the registered family names in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// sorted returns the registered metrics in name order.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4). Histogram bucket edges and sums
// are reported in seconds, the Prometheus convention for latency.
// Each histogram family is followed by a derived <name>_quantiles
// gauge family carrying p50/p95/p99 upper bounds computed at scrape
// time, so dashboards get quantiles without histogram_quantile()
// recording rules.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.sorted() {
		var err error
		switch m.kind {
		case kindCounter:
			err = writeScalar(w, m, "counter", float64(m.counter.Value()))
		case kindGauge:
			err = writeScalar(w, m, "gauge", float64(m.gauge.Value()))
		case kindGaugeFunc:
			v := 0.0
			if fn := r.fnOf(m); fn != nil {
				v = fn()
			}
			err = writeScalar(w, m, "gauge", v)
		case kindCounterFunc:
			err = writeScalar(w, m, "counter", float64(r.counterOf(m)))
		case kindHistogram:
			s := m.hist.Snapshot()
			if err = writeHistogram(w, m, s); err == nil {
				err = writeQuantiles(w, m, s)
			}
		case kindWindow:
			if win := r.winOf(m); win != nil {
				s := win.Snapshot()
				if err = writeHistogram(w, m, s); err == nil {
					err = writeQuantiles(w, m, s)
				}
			}
		}
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
	}
	return nil
}

// writeQuantiles emits the derived <name>_quantiles gauge family from
// one histogram snapshot: bucket upper bounds in seconds, so the
// values are directly comparable to the _bucket le edges. Empty
// histograms are skipped — a zero quantile from zero samples reads as
// "instant", not "no data".
func writeQuantiles(w io.Writer, m *metric, s HistogramSnapshot) error {
	if s.Count == 0 {
		return nil
	}
	// The quantile points precomputed for every histogram family at
	// exposition time.
	scrapeQuantiles := []struct {
		label string
		p     float64
	}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}}
	name := m.name + "_quantiles"
	if _, err := fmt.Fprintf(w, "# HELP %s scrape-time quantile upper bounds of %s\n", name, m.name); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
		return err
	}
	for _, q := range scrapeQuantiles {
		if _, err := fmt.Fprintf(w, "%s{quantile=%q} %s\n",
			name, q.label, formatFloat(s.Quantile(q.p).Seconds())); err != nil {
			return err
		}
	}
	return nil
}

func writeHeader(w io.Writer, m *metric, typ string) error {
	if m.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, typ)
	return err
}

func writeScalar(w io.Writer, m *metric, typ string, v float64) error {
	if err := writeHeader(w, m, typ); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(v))
	return err
}

func writeHistogram(w io.Writer, m *metric, s HistogramSnapshot) error {
	if err := writeHeader(w, m, "histogram"); err != nil {
		return err
	}
	// Emit cumulative buckets up to the highest occupied one; the rest
	// collapse into +Inf.
	highest := -1
	for i, c := range s.Buckets {
		if c > 0 {
			highest = i
		}
	}
	var cum int64
	for i := 0; i <= highest; i++ {
		cum += s.Buckets[i]
		le := float64(uint64(1)<<uint(i+1)) / 1e9
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, formatFloat(le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.name, s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", m.name, formatFloat(s.Sum.Seconds())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", m.name, s.Count)
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Vars returns the registry as a JSON-marshalable map for
// expvar-style exposition: scalars as numbers, histograms as
// {count, mean_ns, p50_ns, p99_ns, max... } objects.
func (r *Registry) Vars() map[string]any {
	out := make(map[string]any)
	for _, m := range r.sorted() {
		switch m.kind {
		case kindCounter:
			out[m.name] = m.counter.Value()
		case kindGauge:
			out[m.name] = m.gauge.Value()
		case kindGaugeFunc:
			if fn := r.fnOf(m); fn != nil {
				out[m.name] = fn()
			} else {
				out[m.name] = 0.0
			}
		case kindCounterFunc:
			out[m.name] = r.counterOf(m)
		case kindHistogram:
			out[m.name] = map[string]any{
				"count":   m.hist.Count(),
				"sum_ns":  int64(m.hist.Sum()),
				"mean_ns": int64(m.hist.Mean()),
				"p50_ns":  int64(m.hist.Quantile(0.5)),
				"p99_ns":  int64(m.hist.Quantile(0.99)),
			}
		case kindWindow:
			if win := r.winOf(m); win != nil {
				s := win.Snapshot()
				out[m.name] = map[string]any{
					"count":     s.Count,
					"sum_ns":    int64(s.Sum),
					"mean_ns":   int64(s.Mean()),
					"p50_ns":    int64(s.Quantile(0.5)),
					"p99_ns":    int64(s.Quantile(0.99)),
					"window_ns": int64(win.Span()),
				}
			}
		}
	}
	return out
}
