package disk

import (
	"errors"
	"testing"
	"time"

	"seqstream/internal/geom"
	"seqstream/internal/sim"
)

func newDisk(t *testing.T, eng *sim.Engine, mutate func(*Config)) *Disk {
	t.Helper()
	cfg := ProfileWD800JD(1)
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", nil, true},
		{"no cache", func(c *Config) { c.CacheSize = 0; c.SegmentSize = 0; c.ReadAhead = 0 }, true},
		{"negative cache", func(c *Config) { c.CacheSize = -1 }, false},
		{"zero segment with cache", func(c *Config) { c.SegmentSize = 0 }, false},
		{"segment exceeds cache", func(c *Config) { c.SegmentSize = c.CacheSize * 2 }, false},
		{"negative readahead", func(c *Config) { c.ReadAhead = -1 }, false},
		{"zero interface rate", func(c *Config) { c.InterfaceRate = 0 }, false},
		{"negative overhead", func(c *Config) { c.CommandOverhead = -1 }, false},
		{"bad geometry", func(c *Config) { c.Geometry.RPM = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := ProfileWD800JD(0)
			if tt.mutate != nil {
				tt.mutate(&cfg)
			}
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestNewRejectsNilEngine(t *testing.T) {
	if _, err := New(nil, ProfileWD800JD(0)); err == nil {
		t.Fatal("New(nil engine) should fail")
	}
}

func TestSegmentsCount(t *testing.T) {
	cfg := ProfileTuned(256<<10, 32, 256<<10, 0)
	if got := cfg.Segments(); got != 32 {
		t.Errorf("Segments = %d, want 32", got)
	}
	cfg.CacheSize = 0
	if got := cfg.Segments(); got != 0 {
		t.Errorf("Segments (no cache) = %d, want 0", got)
	}
}

func TestSubmitOutOfRange(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(t, eng, nil)
	cases := []struct{ off, n int64 }{
		{-1, 4096},
		{0, 0},
		{0, -4},
		{d.Capacity(), 4096},
		{d.Capacity() - 100, 4096},
	}
	for _, c := range cases {
		err := d.Submit(c.off, c.n, nil)
		if !errors.Is(err, ErrOutOfRange) {
			t.Errorf("Submit(%d,%d) = %v, want ErrOutOfRange", c.off, c.n, err)
		}
	}
}

func TestSingleReadCompletes(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(t, eng, nil)
	var res *Result
	if err := d.Submit(0, 64<<10, func(r Result) { res = &r }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil {
		t.Fatal("completion not delivered")
	}
	if res.CacheHit {
		t.Error("cold read reported as cache hit")
	}
	if res.End <= res.Start {
		t.Errorf("End %v <= Start %v", res.End, res.Start)
	}
	st := d.Stats()
	if st.Requests != 1 || st.Misses != 1 || st.CacheHits != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesRead != 64<<10 {
		t.Errorf("BytesRead = %d", st.BytesRead)
	}
	if st.BytesMedia != 256<<10 { // read-ahead fills a full segment
		t.Errorf("BytesMedia = %d, want segment fill", st.BytesMedia)
	}
}

func TestReadAheadProducesHits(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(t, eng, nil) // 256K segments, RA = 256K
	// Sequential 64K reads: first misses and prefetches 256K; next three
	// hit.
	var completions int
	issue := func(off int64) {
		if err := d.Submit(off, 64<<10, func(Result) { completions++ }); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	for i := int64(0); i < 8; i++ {
		issue(i * 64 << 10)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if completions != 8 {
		t.Fatalf("completions = %d", completions)
	}
	st := d.Stats()
	if st.CacheHits != 6 || st.Misses != 2 {
		t.Errorf("hits=%d misses=%d, want 6/2", st.CacheHits, st.Misses)
	}
}

func TestNoReadAheadNoHits(t *testing.T) {
	eng := sim.NewEngine()
	// Segment size = request size = read-ahead disables prefetch (§3.1).
	d := newDisk(t, eng, func(c *Config) {
		c.SegmentSize = 64 << 10
		c.CacheSize = 8 << 20
		c.ReadAhead = 64 << 10
	})
	for i := int64(0); i < 8; i++ {
		if err := d.Submit(i*64<<10, 64<<10, nil); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := d.Stats()
	if st.CacheHits != 0 {
		t.Errorf("CacheHits = %d, want 0 with prefetch disabled", st.CacheHits)
	}
}

func TestSequentialFasterThanScattered(t *testing.T) {
	// One stream reading sequentially must finish much faster than the
	// same volume scattered across the disk (seek + rotation per read).
	run := func(scatter bool) sim.Time {
		eng := sim.NewEngine()
		d := newDisk(t, eng, func(c *Config) { c.CacheSize = 0; c.SegmentSize = 0; c.ReadAhead = 0 })
		const n = 64
		for i := int64(0); i < n; i++ {
			off := i * 256 << 10
			if scatter {
				off = i * (d.Capacity() / (n + 1))
				off -= off % 512
			}
			if err := d.Submit(off, 256<<10, nil); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return eng.Now()
	}
	seq := run(false)
	scat := run(true)
	if scat < 2*seq {
		t.Errorf("scattered (%v) should be >= 2x sequential (%v)", scat, seq)
	}
}

func TestSequentialThroughputNearMediaRate(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(t, eng, func(c *Config) { c.CommandOverhead = 0 })
	const req = 1 << 20
	const n = 64
	for i := int64(0); i < n; i++ {
		if err := d.Submit(i*req, req, nil); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	mbps := float64(n*req) / eng.Now().Seconds() / 1e6
	// Outer-zone media rate is 60 MB/s; interface adds ~40% overhead at
	// most. Expect at least 30 MB/s and no more than 60.
	if mbps < 30 || mbps > 60 {
		t.Errorf("sequential throughput = %.1f MB/s, want 30-60", mbps)
	}
}

func TestThroughputCollapseWithStreams(t *testing.T) {
	// The paper's headline observation (Figs 1, 4, 5): many interleaved
	// sequential streams collapse throughput by >= 4x vs one stream.
	run := func(streams int) float64 {
		eng := sim.NewEngine()
		d := newDisk(t, eng, func(c *Config) {
			c.SegmentSize = 64 << 10
			c.CacheSize = 8 << 20
			c.ReadAhead = 64 << 10 // no prefetch
		})
		spacing := d.Capacity() / int64(streams)
		spacing -= spacing % 512
		next := make([]int64, streams)
		for i := range next {
			next[i] = int64(i) * spacing
		}
		var bytes int64
		const total = 512
		issued := 0
		var issue func(s int)
		issue = func(s int) {
			if issued >= total {
				return
			}
			issued++
			off := next[s]
			next[s] += 64 << 10
			if err := d.Submit(off, 64<<10, func(Result) {
				bytes += 64 << 10
				issue(s) // synchronous client: next request on completion
			}); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
		for s := 0; s < streams; s++ {
			issue(s)
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return float64(bytes) / eng.Now().Seconds() / 1e6
	}
	one := run(1)
	many := run(30)
	if one < 4*many {
		t.Errorf("collapse factor = %.2f (1 stream %.1f MB/s, 30 streams %.1f MB/s), want >= 4", one/many, one, many)
	}
}

func TestSegmentThrashingPathology(t *testing.T) {
	// Fig 7: when streams > segments, large prefetch is WORSE than no
	// prefetch: segments are reclaimed before their prefetched data is
	// used.
	run := func(readAhead int64) float64 {
		eng := sim.NewEngine()
		d := newDisk(t, eng, func(c *Config) {
			c.SegmentSize = 1 << 20
			c.CacheSize = 8 << 20 // 8 segments
			c.ReadAhead = readAhead
		})
		const streams = 32 // far more than 8 segments
		spacing := d.Capacity() / streams
		spacing -= spacing % 512
		next := make([]int64, streams)
		for i := range next {
			next[i] = int64(i) * spacing
		}
		var bytes int64
		issued := 0
		var issue func(s int)
		issue = func(s int) {
			if issued >= 512 {
				return
			}
			issued++
			off := next[s]
			next[s] += 64 << 10
			if err := d.Submit(off, 64<<10, func(Result) {
				bytes += 64 << 10
				issue(s)
			}); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
		for s := 0; s < streams; s++ {
			issue(s)
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return float64(bytes) / eng.Now().Seconds() / 1e6
	}
	noPrefetch := run(64 << 10)
	bigPrefetch := run(1 << 20)
	if bigPrefetch >= noPrefetch {
		t.Errorf("thrashing prefetch (%.1f MB/s) should underperform no prefetch (%.1f MB/s)", bigPrefetch, noPrefetch)
	}
}

func TestCLookOrdersByOffset(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(t, eng, func(c *Config) {
		c.Policy = CLook
		c.CacheSize = 0
		c.SegmentSize = 0
		c.ReadAhead = 0
	})
	var order []int64
	// Build the queue while the disk is busy with a blocker request.
	if err := d.Submit(0, 512, func(Result) {}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	offs := []int64{50 << 20, 10 << 20, 30 << 20, 70 << 20}
	for _, off := range offs {
		off := off
		if err := d.Submit(off, 512, func(Result) { order = append(order, off) }); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int64{10 << 20, 30 << 20, 50 << 20, 70 << 20}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
}

func TestLargeRequestStreamsThroughCache(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(t, eng, nil) // 256K segments
	var done bool
	if err := d.Submit(0, 2<<20, func(Result) { done = true }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done {
		t.Fatal("large request did not complete")
	}
	if d.Stats().BytesMedia != 2<<20 {
		t.Errorf("BytesMedia = %d, want full request", d.Stats().BytesMedia)
	}
}

func TestQueuePolicyString(t *testing.T) {
	if FCFS.String() != "fcfs" || CLook.String() != "clook" {
		t.Error("policy String() mismatch")
	}
	if QueuePolicy(99).String() == "" {
		t.Error("unknown policy should still format")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Time {
		eng := sim.NewEngine()
		d := newDisk(t, eng, nil)
		rng := sim.NewRand(9)
		for i := 0; i < 100; i++ {
			off := rng.Int63n(d.Capacity() - 1<<20)
			off -= off % 512
			if err := d.Submit(off, 64<<10, nil); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return eng.Now()
	}
	if run() != run() {
		t.Error("identical runs diverged")
	}
}

func TestGeometryAccessors(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(t, eng, nil)
	if d.Capacity() != d.g.Capacity() {
		t.Error("capacity mismatch")
	}
	_ = geom.BlockSize
	_ = time.Second
}
