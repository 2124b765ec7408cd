package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestLatencySummaryBasics(t *testing.T) {
	var l LatencySummary
	if l.Mean() != 0 || l.Count() != 0 || l.Quantile(0.5) != 0 {
		t.Error("empty summary should be zeroed")
	}
	l.Observe(10 * time.Millisecond)
	l.Observe(20 * time.Millisecond)
	l.Observe(30 * time.Millisecond)
	if l.Count() != 3 {
		t.Errorf("Count = %d", l.Count())
	}
	if l.Mean() != 20*time.Millisecond {
		t.Errorf("Mean = %v", l.Mean())
	}
	if l.Max() != 30*time.Millisecond {
		t.Errorf("Max = %v", l.Max())
	}
}

func TestLatencyNegativeClamped(t *testing.T) {
	var l LatencySummary
	l.Observe(-5 * time.Millisecond)
	if l.Max() != 0 || l.Mean() != 0 {
		t.Error("negative sample not clamped")
	}
}

func TestLatencyQuantileBounds(t *testing.T) {
	var l LatencySummary
	for i := 1; i <= 100; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	q50 := l.Quantile(0.5)
	if q50 < 30*time.Millisecond || q50 > 130*time.Millisecond {
		t.Errorf("Quantile(0.5) = %v, out of plausible range", q50)
	}
	if l.Quantile(1.0) != l.Max() {
		t.Errorf("Quantile(1.0) = %v, want max %v", l.Quantile(1.0), l.Max())
	}
	if l.Quantile(-1) == 0 && l.Count() > 0 {
		// p clamped to 0 still returns the first bucket top; just make
		// sure it does not panic and is <= max.
		if l.Quantile(-1) > l.Max() {
			t.Error("clamped quantile above max")
		}
	}
	if l.Quantile(2) != l.Max() {
		t.Error("p>1 should clamp to max")
	}
}

func TestLatencyQuantileMonotonic(t *testing.T) {
	var l LatencySummary
	seed := uint64(99)
	for i := 0; i < 1000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		l.Observe(time.Duration(seed % uint64(time.Second)))
	}
	f := func(a, b float64) bool {
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		return l.Quantile(pa) <= l.Quantile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencyMerge(t *testing.T) {
	var a, b LatencySummary
	a.Observe(10 * time.Millisecond)
	b.Observe(30 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 2 || a.Mean() != 20*time.Millisecond {
		t.Errorf("merged count=%d mean=%v", a.Count(), a.Mean())
	}
	if a.Max() != 30*time.Millisecond {
		t.Error("merged max wrong")
	}
	a.Merge(nil) // no-op
	var empty LatencySummary
	a.Merge(&empty) // no-op
	if a.Count() != 2 {
		t.Error("no-op merges changed count")
	}
	empty.Merge(&a)
	if empty.Count() != 2 || empty.Mean() != 20*time.Millisecond {
		t.Error("merge into empty lost samples")
	}
}

func TestLatencyMergeEmptyPair(t *testing.T) {
	var a, b LatencySummary
	a.Merge(&b)
	if a.Count() != 0 || a.Mean() != 0 || a.Max() != 0 || a.Quantile(0.99) != 0 {
		t.Errorf("empty×empty merge produced samples: %+v", a)
	}
}

func TestLatencyFractionUnder(t *testing.T) {
	var l LatencySummary
	for i := 0; i < 90; i++ {
		l.Observe(3 * time.Microsecond) // bucket [2048ns, 4096ns)
	}
	for i := 0; i < 10; i++ {
		l.Observe(3 * time.Millisecond) // bucket [2^21, 2^22)ns
	}
	if got := l.FractionUnder(4096 * time.Nanosecond); got != 0.9 {
		t.Errorf("FractionUnder(4096ns) = %v, want 0.9", got)
	}
	if got := l.FractionUnder(10 * time.Millisecond); got != 1.0 {
		t.Errorf("FractionUnder(10ms) = %v, want 1", got)
	}
	// A deadline inside the fast bucket conservatively excludes it.
	if got := l.FractionUnder(3 * time.Microsecond); got != 0 {
		t.Errorf("FractionUnder(3µs) = %v, want the conservative 0", got)
	}
	var empty LatencySummary
	if got := empty.FractionUnder(time.Second); got != 0 {
		t.Errorf("empty FractionUnder = %v", got)
	}
}

func TestLatencyQuantileSingleBucket(t *testing.T) {
	// Samples confined to one bucket: every quantile is that bucket's
	// top, clamped to the observed max.
	var l LatencySummary
	for i := 0; i < 100; i++ {
		l.Observe(3 * time.Microsecond) // bucket [2048ns, 4096ns)
	}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := l.Quantile(p); got != 3*time.Microsecond {
			t.Errorf("Quantile(%v) = %v, want clamped max 3µs", p, got)
		}
	}
}

func TestLatencyQuantileMaxBucketSaturation(t *testing.T) {
	// A sample in the top buckets must not overflow the 2^(i+1) bucket
	// edge into a negative Duration; the tracked max bounds it.
	var l LatencySummary
	huge := time.Duration(math.MaxInt64)
	l.Observe(huge)
	l.Observe(time.Millisecond)
	for _, p := range []float64{0.9, 1} {
		got := l.Quantile(p)
		if got < 0 {
			t.Fatalf("Quantile(%v) = %v, overflowed negative", p, got)
		}
		if got != huge {
			t.Errorf("Quantile(%v) = %v, want max %v", p, got, huge)
		}
	}
	// 1ms lands in bucket 19 ([2^19, 2^20) ns), whose top is 2^20 ns.
	if got := l.Quantile(0.5); got != time.Duration(1<<20) {
		t.Errorf("Quantile(0.5) = %v, want 2^20ns bucket top", got)
	}
}

func TestRecorderThroughput(t *testing.T) {
	r := NewRecorder()
	// One stream delivering 10 MB over 1 second.
	for i := 0; i < 10; i++ {
		start := time.Duration(i) * 100 * time.Millisecond
		r.Record(0, 1e6, start, start+100*time.Millisecond)
	}
	if got := r.AggregateMBps(); math.Abs(got-10) > 0.01 {
		t.Errorf("AggregateMBps = %v, want 10", got)
	}
	if r.TotalBytes() != 10e6 {
		t.Errorf("TotalBytes = %d", r.TotalBytes())
	}
	if r.TotalRequests() != 10 {
		t.Errorf("TotalRequests = %d", r.TotalRequests())
	}
}

func TestRecorderAggregatesAcrossStreams(t *testing.T) {
	r := NewRecorder()
	// Two concurrent streams, each 5 MB/s for 1 second.
	for s := 0; s < 2; s++ {
		for i := 0; i < 5; i++ {
			start := time.Duration(i) * 200 * time.Millisecond
			r.Record(s, 1e6, start, start+200*time.Millisecond)
		}
	}
	if got := r.AggregateMBps(); math.Abs(got-10) > 0.01 {
		t.Errorf("AggregateMBps = %v, want 10 (5+5)", got)
	}
	if got := r.WallThroughput() / 1e6; math.Abs(got-10) > 0.01 {
		t.Errorf("WallThroughput = %v MB/s, want 10", got)
	}
	if r.Streams() != 2 {
		t.Errorf("Streams = %d", r.Streams())
	}
	ids := r.StreamIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("StreamIDs = %v", ids)
	}
}

func TestRecorderEmpty(t *testing.T) {
	r := NewRecorder()
	if r.AggregateThroughput() != 0 || r.WallThroughput() != 0 {
		t.Error("empty recorder should report 0 throughput")
	}
	if r.Stream(5) != nil {
		t.Error("missing stream should be nil")
	}
}

func TestStreamStatsZeroSpan(t *testing.T) {
	s := &StreamStats{Bytes: 100}
	if s.Throughput() != 0 {
		t.Error("zero-span throughput should be 0")
	}
}

func TestRecorderMergedLatency(t *testing.T) {
	r := NewRecorder()
	r.Record(0, 100, 0, 10*time.Millisecond)
	r.Record(1, 100, 0, 30*time.Millisecond)
	lat := r.MergedLatency()
	if lat.Count() != 2 || lat.Mean() != 20*time.Millisecond {
		t.Errorf("merged latency count=%d mean=%v", lat.Count(), lat.Mean())
	}
}

func TestBucketOf(t *testing.T) {
	if bucketOf(0) != 0 || bucketOf(-1) != 0 {
		t.Error("non-positive should map to bucket 0")
	}
	if bucketOf(1) != 0 {
		t.Errorf("bucketOf(1ns) = %d", bucketOf(1))
	}
	if bucketOf(time.Duration(1024)) != 10 {
		t.Errorf("bucketOf(1024ns) = %d, want 10", bucketOf(time.Duration(1024)))
	}
}

// shiftLoopBucket is bucketOf's former leading-zeros loop, kept as the
// reference the bits.Len64 form must match.
func shiftLoopBucket(d time.Duration) int {
	n := int64(d)
	if n <= 0 {
		return 0
	}
	lz := 64
	for i := 63; i >= 0; i-- {
		if uint64(n)&(1<<uint(i)) != 0 {
			lz = 63 - i
			break
		}
	}
	return 63 - lz
}

func TestBucketOfMatchesShiftLoop(t *testing.T) {
	cases := []time.Duration{0, -1, 1, math.MaxInt64}
	for k := 1; k <= 62; k++ {
		p := time.Duration(1) << k
		cases = append(cases, p-1, p, p+1)
	}
	for _, d := range cases {
		if got, want := bucketOf(d), shiftLoopBucket(d); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", int64(d), got, want)
		}
	}
}
