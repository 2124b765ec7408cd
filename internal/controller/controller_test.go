package controller

import (
	"testing"
	"time"

	"seqstream/internal/disk"
	"seqstream/internal/sim"
)

func newSetup(t *testing.T, ndisks int, mutate func(*Config)) (*sim.Engine, *Controller) {
	t.Helper()
	eng := sim.NewEngine()
	disks := make([]*disk.Disk, ndisks)
	for i := range disks {
		d, err := disk.New(eng, disk.ProfileWD800JD(uint64(i)+1))
		if err != nil {
			t.Fatalf("disk.New: %v", err)
		}
		disks[i] = d
	}
	cfg := ProfileBC4810()
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(eng, cfg, disks)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng, c
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", nil, true},
		{"readahead", func(c *Config) { c.ReadAhead = 1 << 20 }, true},
		{"negative cache", func(c *Config) { c.CacheSize = -1 }, false},
		{"negative readahead", func(c *Config) { c.ReadAhead = -1 }, false},
		{"readahead over cache", func(c *Config) { c.ReadAhead = c.CacheSize + 1 }, false},
		{"zero rate", func(c *Config) { c.HostRate = 0 }, false},
		{"negative overhead", func(c *Config) { c.Overhead = -1 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := ProfileBC4810()
			if tt.mutate != nil {
				tt.mutate(&cfg)
			}
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	d, err := disk.New(eng, disk.ProfileWD800JD(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, ProfileBC4810(), []*disk.Disk{d}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(eng, ProfileBC4810(), nil); err == nil {
		t.Error("no disks accepted")
	}
	bad := ProfileBC4810()
	bad.HostRate = -1
	if _, err := New(eng, bad, []*disk.Disk{d}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSubmitBadDisk(t *testing.T) {
	_, c := newSetup(t, 2, nil)
	if err := c.Submit(-1, 0, 4096, nil); err == nil {
		t.Error("negative disk id accepted")
	}
	if err := c.Submit(2, 0, 4096, nil); err == nil {
		t.Error("out-of-range disk id accepted")
	}
}

func TestSubmitOutOfRangePropagates(t *testing.T) {
	_, c := newSetup(t, 1, nil)
	cap := c.Disk(0).Capacity()
	if err := c.Submit(0, cap, 4096, nil); err == nil {
		t.Error("out-of-range offset accepted")
	}
	st := c.stats
	if st.Requests != 0 || st.Misses != 0 || st.BytesDisks != 0 {
		t.Errorf("failed submit leaked stats: %+v", st)
	}
}

func TestPassThroughRead(t *testing.T) {
	eng, c := newSetup(t, 1, nil)
	var res *Result
	if err := c.Submit(0, 0, 64<<10, func(r Result) { res = &r }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no completion")
	}
	if res.ControllerHit {
		t.Error("pass-through read reported controller hit")
	}
	if res.End <= res.Start {
		t.Error("nonpositive latency")
	}
	if c.stats.BytesHost != 64<<10 {
		t.Errorf("BytesHost = %d", c.stats.BytesHost)
	}
}

func TestControllerReadAheadHits(t *testing.T) {
	eng, c := newSetup(t, 1, func(cfg *Config) { cfg.ReadAhead = 1 << 20 })
	var hits int
	for i := int64(0); i < 16; i++ {
		if err := c.Submit(0, i*64<<10, 64<<10, func(r Result) {
			if r.ControllerHit {
				hits++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 MB read-ahead covers 16 64K requests: 1 miss, 15 hits.
	if hits != 15 {
		t.Errorf("controller hits = %d, want 15", hits)
	}
	st := c.stats
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.BytesDisks != 1<<20 {
		t.Errorf("BytesDisks = %d, want 1MB", st.BytesDisks)
	}
}

func TestControllerCacheThrash(t *testing.T) {
	// Fig 8 pathology: streams × read-ahead exceeding the cache turns
	// every request into a miss with a huge disk fetch.
	run := func(cache int64) (hits, misses int64) {
		eng, c := newSetup(t, 1, func(cfg *Config) {
			cfg.CacheSize = cache
			cfg.ReadAhead = 1 << 20
		})
		const streams = 8
		capacity := c.Disk(0).Capacity()
		spacing := capacity / streams
		spacing -= spacing % 512
		// Synchronous clients with think time: each stream issues its
		// next sequential 64K request 100ms after the previous
		// completes, so extents live far shorter than a stream needs them. With only
		// 2 extents the other streams' fills evict an extent long
		// before its stream has consumed it.
		var issue func(s, round int64)
		issue = func(s, round int64) {
			if round >= 8 {
				return
			}
			off := s*spacing + round*64<<10
			if err := c.Submit(0, off, 64<<10, func(Result) {
				eng.Schedule(100*time.Millisecond, func() { issue(s, round+1) })
			}); err != nil {
				t.Fatal(err)
			}
		}
		for s := int64(0); s < streams; s++ {
			issue(s, 0)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		st := c.stats
		return st.CacheHits + st.Coalesced, st.Misses
	}
	bigHits, bigMiss := run(16 << 20)    // 16 extents >= 8 streams
	smallHits, smallMiss := run(2 << 20) // 2 extents < 8 streams
	if bigHits <= smallHits {
		t.Errorf("big cache hits %d should exceed small cache hits %d", bigHits, smallHits)
	}
	if smallMiss <= 2*bigMiss {
		t.Errorf("small cache misses = %d vs big cache %d, want heavy thrashing", smallMiss, bigMiss)
	}
}

func TestHostLinkSerializes(t *testing.T) {
	// Two disks complete around the same time; host transfers must
	// serialize on the shared link.
	eng, c := newSetup(t, 2, func(cfg *Config) { cfg.HostRate = 100e6 })
	var ends []sim.Time
	const n = 32 << 20 // 32 MB each => 320ms each on the link
	for d := 0; d < 2; d++ {
		if err := c.Submit(d, 0, n, func(r Result) { ends = append(ends, r.End) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 2 {
		t.Fatalf("completions = %d", len(ends))
	}
	gap := ends[1] - ends[0]
	if gap < 0 {
		gap = -gap
	}
	if gap < 250*time.Millisecond {
		t.Errorf("completions %v apart, want serialized by link (>250ms)", gap)
	}
}

func TestAccessors(t *testing.T) {
	_, c := newSetup(t, 3, nil)
	if c.Disks() != 3 {
		t.Errorf("Disks = %d", c.Disks())
	}
	if c.Disk(1) == nil {
		t.Error("nil disk accessor")
	}
}
