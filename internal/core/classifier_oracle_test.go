package core

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"seqstream/internal/sim"
)

// bitmapOracle is the §4.1 classifier with no singleton table: every
// touched region gets a heap bitmap at once. The classifier must
// detect exactly what it detects while no singleton set overflows.
type bitmapOracle struct {
	cfg     Config
	regions map[regionKey]*region
}

func newBitmapOracle(cfg Config) *bitmapOracle {
	return &bitmapOracle{cfg: cfg, regions: make(map[regionKey]*region)}
}

func (o *bitmapOracle) observe(disk int, off, length int64, now time.Duration) bool {
	rb := int64(o.cfg.RegionBlocks)
	detected := false
	for b := off / o.cfg.BlockSize; b <= (off+length-1)/o.cfg.BlockSize; b++ {
		key := regionKey{disk: disk, region: b / rb}
		r := o.regions[key]
		if r == nil {
			r = &region{bits: make([]uint64, (o.cfg.RegionBlocks+63)/64)}
			o.regions[key] = r
		}
		r.lastTouch = now
		idx := b % rb
		if mask := uint64(1) << uint(idx%64); r.bits[idx/64]&mask == 0 {
			r.bits[idx/64] |= mask
			r.set++
		}
		if !r.promoted && r.set >= o.cfg.DetectThreshold {
			r.promoted = true
			detected = true
		}
	}
	return detected
}

func (o *bitmapOracle) gc(cutoff time.Duration) int {
	freed := 0
	for key, r := range o.regions {
		if r.lastTouch < cutoff {
			delete(o.regions, key)
			freed++
		}
	}
	return freed
}

// oracleConfig is a narrow classifier, so short schedules fill regions,
// cross their boundaries and promote.
func oracleConfig() Config {
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.BlockSize = 4096
	cfg.RegionBlocks = 16
	cfg.DetectThreshold = 4
	return cfg
}

// checkClassifierState asserts what holds with or without overflow:
// the singleton count matches the table, no region is both a singleton
// and a bitmap, every bitmap holds at least two blocks and its count
// is exact, and every bit the classifier holds the oracle holds too.
func checkClassifierState(t *testing.T, c *classifier, o *bitmapOracle) {
	t.Helper()
	live := 0
	for i := range c.singles {
		for _, s := range c.singles[i] {
			if s.disk < 0 {
				continue
			}
			live++
			key := regionKey{disk: s.disk, region: s.region}
			if singletonSet(key) != i {
				t.Fatalf("singleton %+v filed in set %d, hashes to %d", key, i, singletonSet(key))
			}
			if c.regions[key] != nil {
				t.Fatalf("region %+v is both a singleton and a bitmap", key)
			}
			or := o.regions[key]
			if or == nil || or.bits[s.idx/64]&(1<<uint(s.idx%64)) == 0 {
				t.Fatalf("singleton %+v block %d is not in the oracle", key, s.idx)
			}
		}
	}
	if live != c.singletons {
		t.Fatalf("table holds %d singletons, count says %d", live, c.singletons)
	}
	for key, r := range c.regions {
		if n := popcount(r.bits); n != r.set || n < 2 {
			t.Fatalf("region %+v: %d bits set, count %d (a bitmap holds at least 2)", key, n, r.set)
		}
		or := o.regions[key]
		if or == nil {
			t.Fatalf("region %+v is not in the oracle", key)
		}
		for w := range r.bits {
			if r.bits[w]&^or.bits[w] != 0 {
				t.Fatalf("region %+v holds bits the oracle never set", key)
			}
		}
		if r.promoted && !or.promoted {
			t.Fatalf("region %+v promoted before the oracle's", key)
		}
	}
}

// touchedPromoted reports whether some region the request touches is
// promoted in both the classifier and the oracle: the only way a
// detection may happen once a singleton was forgotten.
func touchedPromoted(c *classifier, o *bitmapOracle, disk int, off, length int64) bool {
	rb := int64(c.cfg.RegionBlocks)
	for b := off / c.cfg.BlockSize; b <= (off+length-1)/c.cfg.BlockSize; b++ {
		key := regionKey{disk: disk, region: b / rb}
		if r, or := c.regions[key], o.regions[key]; r != nil && or != nil && r.promoted && or.promoted {
			return true
		}
	}
	return false
}

// TestClassifierMatchesBitmapOracle drives the classifier and the
// per-region bitmap reference with the same seeded schedules —
// interleaved streams, out-of-order and duplicate blocks, requests
// that span blocks and cross region boundaries, and collector passes —
// and requires identical detections, regions and collections. The
// schedules use regions whose sets hold at most four of them, so no
// singleton is ever forgotten.
func TestClassifierMatchesBitmapOracle(t *testing.T) {
	cfg := oracleConfig()
	bs, rb := cfg.BlockSize, int64(cfg.RegionBlocks)
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRand(seed)
		c, o := newClassifier(cfg), newBitmapOracle(cfg)

		// Pick region pairs (r, r+1) so requests may cross into the
		// next region; a pair is kept only if both sets have room.
		var load [singletonSets]int
		type pair struct {
			disk   int
			region int64
		}
		var pool []pair
		for len(pool) < 150 {
			p := pair{disk: rng.Intn(3), region: rng.Int63n(1 << 20)}
			a := singletonSet(regionKey{p.disk, p.region})
			b := singletonSet(regionKey{p.disk, p.region + 1})
			if load[a] >= singletonWays || load[b] >= singletonWays || (a == b && load[a] >= singletonWays-1) {
				continue
			}
			load[a]++
			load[b]++
			pool = append(pool, p)
		}

		now := time.Duration(0)
		detections := 0
		for step := 0; step < 20000; step++ {
			now += time.Duration(rng.Intn(50)) * time.Millisecond
			if rng.Intn(200) == 0 {
				cutoff := now - time.Duration(rng.Intn(3000))*time.Millisecond
				if got, want := c.gc(cutoff), o.gc(cutoff); got != want {
					t.Fatalf("seed %d step %d: gc freed %d, oracle %d", seed, step, got, want)
				}
			}
			p := pool[rng.Intn(len(pool))]
			base := p.region * rb * bs
			var off, length int64
			switch rng.Intn(4) {
			case 0: // one block, anywhere in the pair
				off, length = base+rng.Int63n(2*rb)*bs, bs
			case 1: // a duplicate of the pair's first block
				off, length = base, bs
			case 2: // an unaligned multi-block read, maybe crossing into r+1
				off, length = base+rng.Int63n(2*rb-4)*bs+rng.Int63n(bs), (1+rng.Int63n(3))*bs
			default: // an unaligned short read
				off, length = base+rng.Int63n(2*rb-1)*bs+rng.Int63n(bs), 1+rng.Int63n(bs)
			}
			got, want := c.observe(p.disk, off, length, now), o.observe(p.disk, off, length, now)
			if got != want {
				t.Fatalf("seed %d step %d: observe(%d, %d, %d) = %v, oracle %v", seed, step, p.disk, off, length, got, want)
			}
			if got {
				detections++
			}
			if c.regionCount() != len(o.regions) {
				t.Fatalf("seed %d step %d: %d regions, oracle %d", seed, step, c.regionCount(), len(o.regions))
			}
		}
		checkClassifierState(t, c, o)
		if c.forgotten != 0 {
			t.Fatalf("seed %d: %d singletons forgotten with at most %d regions per set", seed, c.forgotten, singletonWays)
		}
		if detections == 0 {
			t.Fatalf("seed %d: schedule never detected a stream", seed)
		}
	}
}

// TestClassifierRandomTouchesBounded sends 1 Mi one-off reads — every
// region of two 2 TiB disks touched once, in a scattered order — and
// requires that they allocate nothing and leave the heap where it was:
// random traffic costs the classifier its fixed table and no more.
func TestClassifierRandomTouchesBounded(t *testing.T) {
	cfg := DefaultConfig(64<<20, 1<<20)
	c := newClassifier(cfg)
	const (
		disks    = 2
		capacity = 2 << 40
		touches  = 1 << 20
	)
	span := cfg.BlockSize * int64(cfg.RegionBlocks)
	perDisk := int64(capacity) / span
	if disks*perDisk != touches {
		t.Fatalf("%d regions, want %d", disks*perDisk, touches)
	}
	// Touch i reads disk i%2; an odd multiplier permutes the regions of
	// a power-of-two disk.
	touch := func(i int64) {
		r := (i / disks * 40503) & (perDisk - 1)
		blk := (i * 7) % int64(cfg.RegionBlocks)
		c.observe(int(i%disks), r*span+blk*cfg.BlockSize, cfg.BlockSize, time.Duration(i))
	}
	// Fill the table first so the measured touches all replace a way.
	for i := int64(0); i < 2*singletonSets*singletonWays; i++ {
		touch(touches - 1 - i)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := int64(0); i < touches-2*singletonSets*singletonWays; i++ {
		touch(i)
	}
	runtime.ReadMemStats(&after)
	// Mallocs counts the whole process, so a stray runtime or harness
	// allocation can land in the window; an allocation per touch would
	// count in the millions.
	if n := after.Mallocs - before.Mallocs; n > 8 {
		t.Errorf("%d one-off touches made %d allocations, want 0 per touch", touches, n)
	}
	runtime.GC()
	var settled runtime.MemStats
	runtime.ReadMemStats(&settled)
	if grew := int64(settled.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
		t.Errorf("heap grew %d bytes over the one-off touches", grew)
	}
	if len(c.regions) != 0 {
		t.Errorf("%d bitmaps allocated for one-off touches", len(c.regions))
	}
	if c.singletons != singletonSets*singletonWays {
		t.Errorf("%d singletons live, want the full table of %d", c.singletons, singletonSets*singletonWays)
	}
}

// FuzzClassifierMatchesOracle lets the input choose offsets, lengths,
// disks, times and collector passes. While no singleton set has
// overflowed, detections, region counts and collections must equal
// the bitmap oracle's. After an overflow the classifier may detect
// late, never early: a detection needs a region both hold promoted,
// its bits stay a subset of the oracle's, and the table stays within
// its fixed size.
func FuzzClassifierMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0})
	f.Add([]byte{1, 3, 0, 0x21, 0, 3, 0, 0x21, 1, 5, 0x80, 0x10, 2, 0, 0xff, 0xff})
	f.Add([]byte{0x80, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := oracleConfig()
		c, o := newClassifier(cfg), newBitmapOracle(cfg)
		bs := cfg.BlockSize
		ops := data
		if len(data) > 0 && data[0]&0x80 != 0 {
			// Expand into a long pseudo-random schedule seeded by the
			// input, dense enough to overflow sets.
			var seed [8]byte
			copy(seed[:], data)
			rng := sim.NewRand(binary.LittleEndian.Uint64(seed[:]))
			ops = make([]byte, 4*4096)
			for i := range ops {
				ops[i] = byte(rng.Uint64())
			}
		}
		now := time.Duration(0)
		for len(ops) >= 4 {
			op := ops[:4]
			ops = ops[4:]
			now += time.Duration(op[3]&0x0f) * time.Millisecond
			if op[3]&0xf0 == 0xf0 {
				cutoff := now - time.Duration(op[2])*time.Millisecond
				got, want := c.gc(cutoff), o.gc(cutoff)
				if c.forgotten == 0 && got != want {
					t.Fatalf("gc freed %d, oracle %d", got, want)
				}
				continue
			}
			disk := int(op[0] & 1)
			blk := int64(op[0]>>1)<<8 | int64(op[1]) // 15 bits: 2048 regions
			off := blk*bs + int64(op[2]&0x0f)*(bs/16)
			length := int64(op[2]>>4)*(bs/4) + 1 // up to ~4 blocks
			got, want := c.observe(disk, off, length, now), o.observe(disk, off, length, now)
			if c.forgotten == 0 {
				if got != want {
					t.Fatalf("observe(%d, %d, %d) = %v, oracle %v", disk, off, length, got, want)
				}
				if c.regionCount() != len(o.regions) {
					t.Fatalf("%d regions, oracle %d", c.regionCount(), len(o.regions))
				}
			} else if got && !touchedPromoted(c, o, disk, off, length) {
				t.Fatalf("observe(%d, %d, %d) detected a region the oracle has not promoted", disk, off, length)
			}
			if c.singletons > singletonSets*singletonWays {
				t.Fatalf("%d singletons exceed the table", c.singletons)
			}
		}
		checkClassifierState(t, c, o)
	})
}
