package core

import (
	"testing"
	"time"
)

func classifierConfig() Config {
	cfg := DefaultConfig(64<<20, 1<<20)
	return cfg
}

func TestClassifierDetectsSequential(t *testing.T) {
	cfg := classifierConfig()
	c := newClassifier(cfg)
	bs := cfg.BlockSize
	// Threshold is 4: the 4th consecutive block triggers detection.
	for i := int64(0); i < 3; i++ {
		if c.observe(0, i*bs, bs, 0) {
			t.Fatalf("detected after %d blocks, threshold is 4", i+1)
		}
	}
	if !c.observe(0, 3*bs, bs, 0) {
		t.Fatal("4th sequential block not detected")
	}
	// The region is promoted: further bits do not re-detect.
	if c.observe(0, 4*bs, bs, 0) {
		t.Error("promoted region re-detected")
	}
}

func TestClassifierScatteredNotDetected(t *testing.T) {
	cfg := classifierConfig()
	c := newClassifier(cfg)
	bs := cfg.BlockSize
	regionSpan := bs * int64(cfg.RegionBlocks)
	// One access per region: never enough set bits anywhere.
	for i := int64(0); i < 100; i++ {
		if c.observe(0, i*regionSpan, bs, 0) {
			t.Fatal("scattered accesses detected as sequential")
		}
	}
	if c.regionCount() != 100 {
		t.Errorf("regions = %d, want 100", c.regionCount())
	}
}

func TestClassifierDuplicatesIgnored(t *testing.T) {
	cfg := classifierConfig()
	c := newClassifier(cfg)
	bs := cfg.BlockSize
	// The same block over and over sets one bit; no detection (§4.1:
	// multiple requests to the same block are ignored).
	for i := 0; i < 20; i++ {
		if c.observe(0, 0, bs, 0) {
			t.Fatal("duplicate accesses detected as sequential")
		}
	}
}

func TestClassifierOutOfOrderWithinRegion(t *testing.T) {
	cfg := classifierConfig()
	c := newClassifier(cfg)
	bs := cfg.BlockSize
	// Out-of-order but spatially close accesses still accumulate bits
	// (§4.1: only proximity matters, not order).
	order := []int64{3, 0, 2, 1}
	detected := false
	for _, b := range order {
		if c.observe(0, b*bs, bs, 0) {
			detected = true
		}
	}
	if !detected {
		t.Error("out-of-order proximate accesses not detected")
	}
}

func TestClassifierPerDiskIsolation(t *testing.T) {
	cfg := classifierConfig()
	c := newClassifier(cfg)
	bs := cfg.BlockSize
	// Two disks interleaving the same offsets: each disk's region
	// accumulates independently.
	for i := int64(0); i < 3; i++ {
		c.observe(0, i*bs, bs, 0)
		c.observe(1, i*bs, bs, 0)
	}
	if !c.observe(0, 3*bs, bs, 0) {
		t.Error("disk 0 stream not detected")
	}
	if !c.observe(1, 3*bs, bs, 0) {
		t.Error("disk 1 stream not detected")
	}
}

func TestClassifierLargeRequestSpansBlocks(t *testing.T) {
	cfg := classifierConfig()
	c := newClassifier(cfg)
	bs := cfg.BlockSize
	// One request spanning 4 blocks sets 4 bits at once (§4.1: if the
	// request spans more than one block, all bits are set).
	if !c.observe(0, 0, 4*bs, 0) {
		t.Error("multi-block request should trigger detection immediately")
	}
}

func TestClassifierGC(t *testing.T) {
	cfg := classifierConfig()
	c := newClassifier(cfg)
	bs := cfg.BlockSize
	span := bs * int64(cfg.RegionBlocks)
	// A region touched at one block is a singleton, at two a heap
	// bitmap; both expire at the same cutoff.
	c.observe(0, 0, bs, 0)
	c.observe(0, 100*span, bs, 5*time.Second)
	c.observe(0, 200*span, 2*bs, 0)
	c.observe(0, 300*span, 2*bs, 5*time.Second)
	if c.regionCount() != 4 || len(c.regions) != 2 || c.singletons != 2 {
		t.Fatalf("regions = %d (%d bitmaps, %d singletons), want 4 (2, 2)",
			c.regionCount(), len(c.regions), c.singletons)
	}
	freed := c.gc(time.Second)
	if freed != 2 || c.regionCount() != 2 || len(c.regions) != 1 || c.singletons != 1 {
		t.Errorf("gc freed %d, regions now %d (%d bitmaps, %d singletons); want 2, 2 (1, 1)",
			freed, c.regionCount(), len(c.regions), c.singletons)
	}
	if bitmapBytes(c) <= 0 {
		t.Error("a live two-block region should hold a bitmap")
	}
}

// bitmapBytes is the heap bitmap memory of c's regions; the singleton
// table is a fixed part of the classifier itself.
func bitmapBytes(c *classifier) int64 {
	var n int64
	for _, r := range c.regions {
		n += int64(len(r.bits)) * 8
	}
	return n
}

func TestClassifierBitmapMemoryModest(t *testing.T) {
	// The design point of §4.1: dynamically allocated small bitmaps keep
	// memory proportional to the active footprint. 1000 streams touch
	// two blocks of 1000 regions; each region is RegionBlocks bits.
	// 1000 one-off touches elsewhere allocate no bitmap at all.
	cfg := classifierConfig()
	c := newClassifier(cfg)
	bs := cfg.BlockSize
	span := bs * int64(cfg.RegionBlocks)
	for i := int64(0); i < 1000; i++ {
		c.observe(0, i*span, bs, 0)
		c.observe(0, i*span+bs, bs, 0)
	}
	perRegion := int64((cfg.RegionBlocks+63)/64) * 8
	if got := bitmapBytes(c); got != 1000*perRegion {
		t.Errorf("bitmap memory = %d, want %d", got, 1000*perRegion)
	}
	if bitmapBytes(c) > 1<<20 {
		t.Errorf("bitmap memory %d exceeds 1MB for 1000 regions", bitmapBytes(c))
	}
	for i := int64(1000); i < 2000; i++ {
		c.observe(0, i*span, bs, 0)
	}
	if got := bitmapBytes(c); got != 1000*perRegion {
		t.Errorf("one-off touches grew bitmap memory to %d, want %d", got, 1000*perRegion)
	}
	if c.singletons > singletonSets*singletonWays {
		t.Errorf("%d singletons exceed the table's %d ways", c.singletons, singletonSets*singletonWays)
	}
}

func TestPopcount(t *testing.T) {
	if popcount([]uint64{0}) != 0 {
		t.Error("popcount(0) != 0")
	}
	if popcount([]uint64{0xF, 0x3}) != 6 {
		t.Error("popcount mismatch")
	}
}

func TestDispatchPolicies(t *testing.T) {
	a := &stream{disk: 0, nextFetch: 100}
	b := &stream{disk: 0, nextFetch: 2000}
	c := &stream{disk: 1, nextFetch: 50}
	candidates := []*stream{a, b, c}

	if got := (RoundRobin{}).Next(candidates, nil); got != 0 {
		t.Errorf("RoundRobin.Next = %d, want 0", got)
	}

	last := map[int]int64{0: 1900}
	if got := (NearestOffset{}).Next(candidates, last); got != 1 {
		t.Errorf("NearestOffset.Next = %d, want 1 (offset 2000 nearest 1900)", got)
	}
	// With no head history the first candidate wins.
	if got := (NearestOffset{}).Next(candidates, map[int]int64{}); got != 0 {
		t.Errorf("NearestOffset with no history = %d, want 0", got)
	}
}
