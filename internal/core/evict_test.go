package core

import (
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/sim"
)

// bruteEvictVictims is findEvictVictim without the idle floor: every
// ready, waiter-free buffer of a stream with no fetch in flight that
// has been idle at least EvictIdle, keeping those tied for the oldest
// lastActive (map order decides among ties). It also returns the true
// minimum lastActive over all live buffers. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) bruteEvictVictims(now time.Duration) (oldest []*buffer, minActive time.Duration) {
	minActive = noIdleFloor
	for _, st := range sh.streams {
		for _, b := range st.buffers {
			if b.lastActive < minActive {
				minActive = b.lastActive
			}
			if st.fetchInFlight || !b.ready || now-b.lastActive < sh.srv.cfg.EvictIdle || hasWaiter(st, b) {
				continue
			}
			switch {
			case len(oldest) == 0 || b.lastActive < oldest[0].lastActive:
				oldest = append(oldest[:0], b)
			case b.lastActive == oldest[0].lastActive:
				oldest = append(oldest, b)
			}
		}
	}
	return oldest, minActive
}

// TestEvictIdleFloor drives seeded schedules of streams that read,
// pause and abandon their staged data under memory pressure, and after
// every step checks the shard's eviction answer against a brute-force
// scan: the idle floor never exceeds the true oldest lastActive, the
// victim is the brute-force victim, and while the floor proves that no
// buffer is idle no scan runs.
func TestEvictIdleFloor(t *testing.T) {
	const (
		req     = 64 << 10
		streams = 24
	)
	for seed := uint64(1); seed <= 8; seed++ {
		eng := sim.NewEngine()
		dev, err := blockdev.NewMemDevice(1, 1<<30, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(12<<20, 1<<20)
		cfg.RequestsPerStream = 2
		cfg.EvictIdle = 200 * time.Millisecond
		// Only the Device methods: staging skips the pool, whose
		// poison checks under the invariants tag would dominate.
		srv, err := NewServer(struct{ blockdev.Device }{dev}, blockdev.NewSimClock(eng), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh := srv.shards[0]
		rng := sim.NewRand(seed)
		next := make([]int64, streams)
		for s := range next {
			next[s] = int64(s) * (1 << 30 / streams)
		}

		var calls, found, skipped int
		for step := 0; step < 3000; step++ {
			if err := eng.RunFor(time.Duration(rng.Intn(40)) * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			// A few streams read steadily, the rest now and then: their
			// staged data idles out and becomes the victims.
			s := rng.Intn(4)
			if rng.Intn(3) == 0 {
				s = rng.Intn(streams)
			}
			for k := 0; k < 1+rng.Intn(4); k++ {
				if err := srv.Submit(Request{Disk: 0, Offset: next[s], Length: req, Done: func(r Response) {
					if r.Err != nil {
						t.Errorf("seed %d: read failed: %v", seed, r.Err)
					}
				}}); err != nil {
					t.Fatal(err)
				}
				next[s] += req
			}

			sh.mu.Lock()
			now := srv.clock.Now()
			oldest, minActive := sh.bruteEvictVictims(now)
			if sh.idleFloor > minActive {
				sh.mu.Unlock()
				t.Fatalf("seed %d step %d: idle floor %v above the oldest buffer's lastActive %v", seed, step, sh.idleFloor, minActive)
			}
			provesIdle := now-cfg.EvictIdle < sh.idleFloor
			scans := sh.evictScans
			_, victim := sh.findEvictVictim()
			scanned := sh.evictScans != scans
			floor := sh.idleFloor
			sh.mu.Unlock()

			calls++
			if provesIdle {
				skipped++
				if scanned {
					t.Fatalf("seed %d step %d: scanned although the floor proves nothing is idle", seed, step)
				}
			} else if floor != minActive {
				t.Fatalf("seed %d step %d: a scan left the floor at %v, oldest lastActive is %v", seed, step, floor, minActive)
			}
			if (victim == nil) != (len(oldest) == 0) {
				t.Fatalf("seed %d step %d: victim %v, brute force found %d", seed, step, victim != nil, len(oldest))
			}
			if victim == nil {
				continue
			}
			found++
			ok := false
			for _, b := range oldest {
				ok = ok || b == victim
			}
			if !ok {
				t.Fatalf("seed %d step %d: victim [%d, %d) idle since %v is not the brute-force oldest (%v)",
					seed, step, victim.start, victim.end, victim.lastActive, oldest[0].lastActive)
			}
		}
		srv.Close()
		if found == 0 || skipped == 0 || srv.Stats().BuffersEvicted == 0 {
			t.Fatalf("seed %d: schedule too tame: %d calls, %d victims, %d answered by the floor, %d evictions",
				seed, calls, found, skipped, srv.Stats().BuffersEvicted)
		}
	}
}
