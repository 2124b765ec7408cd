package core

import (
	"testing"
	"testing/quick"

	"seqstream/internal/sim"
)

// genWorkload builds a deterministic pseudo-random request schedule:
// interleaved sequential runs, jumps, duplicates, and stray random
// reads, all derived from one seed.
type genRequest struct {
	off    int64
	length int64
	delay  int // engine events of spacing, 0 = immediate chain
}

func genWorkload(seed uint64, capacity int64, n int) []genRequest {
	rng := sim.NewRand(seed)
	reqs := make([]genRequest, 0, n)
	cursor := int64(0)
	for len(reqs) < n {
		switch rng.Intn(10) {
		case 0: // jump to a random aligned position
			cursor = rng.Int63n(capacity - 16<<20)
			cursor -= cursor % 512
		case 1: // duplicate of the previous request
			if len(reqs) > 0 {
				reqs = append(reqs, reqs[len(reqs)-1])
				continue
			}
		case 2: // small gap (near-sequential skip)
			cursor += int64(rng.Intn(4)) * 64 << 10
		}
		length := int64(rng.Intn(4)+1) * 16 << 10
		if cursor+length > capacity {
			cursor = 0
		}
		reqs = append(reqs, genRequest{off: cursor, length: length, delay: rng.Intn(3)})
		cursor += length
	}
	return reqs
}

// runWorkload pushes the schedule through a fresh node and returns the
// final stats. It fails the test if any request is lost or doubled.
func runWorkload(t *testing.T, seed uint64, cfg Config) Stats {
	t.Helper()
	n := baseNode(t, cfg)
	capacity := n.dev.Capacity(0)
	reqs := genWorkload(seed, capacity, 200)

	completions := make([]int, len(reqs))
	done := 0
	var issue func(i int)
	issue = func(i int) {
		if i >= len(reqs) {
			return
		}
		r := reqs[i]
		err := n.server.Submit(Request{
			Disk: 0, Offset: r.off, Length: r.length,
			Done: func(Response) {
				completions[i]++
				done++
				if r.delay == 0 {
					issue(i + 1)
				} else {
					n.eng.Schedule(sim.Time(r.delay)*100000, func() { issue(i + 1) })
				}
			},
		})
		if err != nil {
			t.Fatalf("seed %d: Submit(%d): %v", seed, i, err)
		}
	}
	issue(0)
	n.await(t, func() bool { return done >= len(reqs) })

	for i, c := range completions {
		if c != 1 {
			t.Fatalf("seed %d: request %d completed %d times", seed, i, c)
		}
	}
	// Drain everything (GC reclaims leftovers) and check quiescent
	// invariants.
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := n.server.Stats()
	if st.MemoryInUse != 0 {
		t.Errorf("seed %d: MemoryInUse = %d at quiescence", seed, st.MemoryInUse)
	}
	if st.LiveBuffers != 0 {
		t.Errorf("seed %d: LiveBuffers = %d at quiescence", seed, st.LiveBuffers)
	}
	if st.PeakMemory > cfg.Memory {
		t.Errorf("seed %d: PeakMemory %d exceeds M %d", seed, st.PeakMemory, cfg.Memory)
	}
	if got := n.server.dispatched.Load(); got != 0 {
		t.Errorf("seed %d: %d streams still dispatched", seed, got)
	}
	if n.probe.live != 0 {
		t.Errorf("seed %d: device live buffers = %d", seed, n.probe.live)
	}
	return st
}

func propertyConfig(nearSeq bool) Config {
	cfg := DefaultConfig(16<<20, 1<<20)
	if nearSeq {
		cfg.NearSeqWindow = 1 << 20
	}
	return cfg
}

func TestPropertyRandomWorkloadsStrict(t *testing.T) {
	f := func(seedRaw uint32) bool {
		runWorkload(t, uint64(seedRaw), propertyConfig(false))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRandomWorkloadsNearSeq(t *testing.T) {
	f := func(seedRaw uint32) bool {
		runWorkload(t, uint64(seedRaw), propertyConfig(true))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDeterminism(t *testing.T) {
	// The same seed must produce byte-identical statistics.
	for _, seed := range []uint64{7, 12345, 1 << 40} {
		a := runWorkload(t, seed, propertyConfig(true))
		b := runWorkload(t, seed, propertyConfig(true))
		if a != b {
			t.Errorf("seed %d: runs diverged:\n%+v\n%+v", seed, a, b)
		}
	}
}

func TestPropertyDeliveredMatchesRequested(t *testing.T) {
	// Bytes delivered must equal the sum of request lengths, for any
	// seed (no short or duplicated deliveries).
	f := func(seedRaw uint32) bool {
		seed := uint64(seedRaw)
		var want int64
		for _, r := range genWorkload(seed, 80*1000*1000*1000/512*512, 200) {
			want += r.length
		}
		st := runWorkload(t, seed, propertyConfig(false))
		if st.BytesDelivered != want {
			t.Errorf("seed %d: delivered %d, want %d", seed, st.BytesDelivered, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
