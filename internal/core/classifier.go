package core

import (
	"math/bits"
	"time"
)

// regionKey identifies a dynamically-allocated bitmap region: a disk
// and an aligned window of RegionBlocks blocks.
type regionKey struct {
	disk   int
	region int64 // block number / RegionBlocks
}

// region is a small bitmap over consecutive blocks (§4.1). Regions are
// allocated on demand as requests arrive, so the memory cost scales
// with the active footprint rather than the disk capacity.
type region struct {
	bits      []uint64
	set       int // distinct set bits
	lastTouch time.Duration
	promoted  bool // a stream has already been created from this region
}

// The singleton table holds regions touched at exactly one block. A
// random read touches one region once, and a region with one set bit
// can never reach the detection threshold (Validate requires at least
// 2), so keeping it as a heap bitmap would only cost memory until the
// collector drops it. A region moves to the heap on its second
// distinct block.
const (
	singletonSetBits = 8
	singletonSets    = 1 << singletonSetBits
	singletonWays    = 4
)

// singleton is one region with a single set bit: the block index
// within the region and the region's last touch.
type singleton struct {
	region    int64
	lastTouch time.Duration
	disk      int // -1 marks a free way
	idx       int
}

// classifier detects sequential streams from the raw request arrivals.
// The mechanism follows §4.1: set one bit per accessed block in the
// request's region; when the number of distinct set bits crosses the
// threshold, declare a sequential stream. Out-of-order requests,
// duplicates, and gaps merely set bits — only proximity in (time,
// space) matters.
type classifier struct {
	cfg     Config
	regions map[regionKey]*region

	// singles is a fixed set-associative table of one-block regions.
	// When a set is full, the oldest entry is forgotten: the table
	// bounds classifier memory under random traffic, and a forgotten
	// region only starts its count again.
	singles    [singletonSets][singletonWays]singleton
	singletons int // live entries in singles
	forgotten  int // entries dropped because their set was full
}

func newClassifier(cfg Config) *classifier {
	c := &classifier{cfg: cfg, regions: make(map[regionKey]*region)}
	for i := range c.singles {
		for w := range c.singles[i] {
			c.singles[i][w].disk = -1
		}
	}
	return c
}

// singletonSet picks a region's set by Fibonacci hashing, so the
// consecutive regions of one disk spread over every set.
func singletonSet(key regionKey) int {
	h := uint64(key.region)*0x9e3779b97f4a7c15 + uint64(key.disk)*0xbf58476d1ce4e5b9
	return int(h >> (64 - singletonSetBits))
}

// observe records a request and reports whether it completes a
// sequential pattern (threshold reached for the first time in its
// region). The caller creates the stream.
func (c *classifier) observe(disk int, off, length int64, now time.Duration) bool {
	firstBlock := off / c.cfg.BlockSize
	lastBlock := (off + length - 1) / c.cfg.BlockSize
	rb := int64(c.cfg.RegionBlocks)
	detected := false
	for b := firstBlock; b <= lastBlock; b++ {
		key := regionKey{disk: disk, region: b / rb}
		idx := int(b % rb)
		r := c.regions[key]
		if r == nil {
			if r = c.touchSingleton(key, idx, now); r == nil {
				continue
			}
		}
		r.lastTouch = now
		word, mask := idx/64, uint64(1)<<uint(idx%64)
		if r.bits[word]&mask == 0 {
			r.bits[word] |= mask
			r.set++
		}
		if !r.promoted && r.set >= c.cfg.DetectThreshold {
			r.promoted = true
			detected = true
		}
	}
	return detected
}

// touchSingleton records a touch at block idx of a region that has no
// bitmap. The region's first block, or a repeat of it, stays in the
// singleton table and nil is returned. A second distinct block moves
// the region to a new heap bitmap holding the first block, which is
// returned for the caller to mark the second.
func (c *classifier) touchSingleton(key regionKey, idx int, now time.Duration) *region {
	set := &c.singles[singletonSet(key)]
	free, oldest := -1, -1
	for w := range set {
		s := &set[w]
		switch {
		case s.disk < 0:
			if free < 0 {
				free = w
			}
		case s.disk == key.disk && s.region == key.region:
			if s.idx == idx {
				s.lastTouch = now
				return nil
			}
			r := &region{bits: make([]uint64, (c.cfg.RegionBlocks+63)/64), set: 1}
			r.bits[s.idx/64] |= 1 << uint(s.idx%64)
			c.regions[key] = r
			s.disk = -1
			c.singletons--
			return r
		case oldest < 0 || s.lastTouch < set[oldest].lastTouch:
			oldest = w
		}
	}
	if free < 0 {
		free = oldest
		c.forgotten++
		c.singletons--
	}
	set[free] = singleton{region: key.region, lastTouch: now, disk: key.disk, idx: idx}
	c.singletons++
	return nil
}

// gc drops regions and singletons untouched since cutoff and returns
// how many were freed.
func (c *classifier) gc(cutoff time.Duration) int {
	freed := 0
	for key, r := range c.regions {
		if r.lastTouch < cutoff {
			delete(c.regions, key)
			freed++
		}
	}
	if c.singletons == 0 {
		return freed
	}
	for i := range c.singles {
		for w := range c.singles[i] {
			if s := &c.singles[i][w]; s.disk >= 0 && s.lastTouch < cutoff {
				s.disk = -1
				c.singletons--
				freed++
			}
		}
	}
	return freed
}

// regionCount returns the number of live regions, singletons included.
func (c *classifier) regionCount() int { return len(c.regions) + c.singletons }

// popcount is exposed for tests.
func popcount(words []uint64) int {
	total := 0
	for _, w := range words {
		total += bits.OnesCount64(w)
	}
	return total
}
