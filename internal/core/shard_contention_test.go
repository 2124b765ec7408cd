package core

import (
	"sync"
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/flight"
)

// TestShardContention drives concurrent classification, dispatch,
// direct reads, and read-side polling across at least 8 scheduler
// shards on a real clock. It exists to run under -race: every
// cross-shard interaction (global memory/slot budgets, repump,
// cross-shard eviction, gauge sync) gets exercised while every shard
// lock is hot.
func TestShardContention(t *testing.T) {
	const disks = 16
	dev, err := blockdev.NewMemDevice(disks, 1<<30, 20*time.Microsecond, false)
	if err != nil {
		t.Fatal(err)
	}
	// Memory is sized well below streams×R so shards starve and must
	// steal via cross-shard eviction and repump.
	cfg := DefaultConfig(24<<20, 1<<20)
	srv, err := NewServer(dev, blockdev.NewRealClock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.NumShards(); got < 8 {
		t.Fatalf("NumShards = %d, want >= 8", got)
	}

	const (
		writers  = disks
		requests = 150
		req      = 64 << 10
	)
	var wg, pending sync.WaitGroup
	stop := make(chan struct{})
	// Every request is counted before any is submitted: an Add racing
	// Wait at a zero count could let Wait return with requests unsent.
	pending.Add((writers + 4) * requests)

	// One sequential reader per disk: all shards classify and dispatch
	// concurrently.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				err := srv.Submit(Request{
					Disk:   w % disks,
					Offset: int64(i) * req,
					Length: req,
					Done:   func(r Response) { r.Release(); pending.Done() },
				})
				if err != nil {
					pending.Add(i - requests) // this and the unsubmitted rest
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(w)
	}
	// Random readers exercise the direct path on the same shards.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				off := (int64(i*2654435761+w*97) % ((1 << 30) / req)) * req
				if off < 0 {
					off = -off
				}
				err := srv.Submit(Request{
					Disk:   (w * 5) % disks,
					Offset: off,
					Length: req,
					Done:   func(r Response) { r.Release(); pending.Done() },
				})
				if err != nil {
					pending.Add(i - requests) // this and the unsubmitted rest
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(w)
	}
	// Read-side pollers take the all-shard Snapshot and per-shard Stats
	// while the write path is hot.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := srv.Stats()
				if st.MemoryInUse < 0 || st.MemoryInUse > cfg.Memory {
					t.Errorf("MemoryInUse = %d outside [0, %d]", st.MemoryInUse, cfg.Memory)
					return
				}
				snap := srv.Snapshot()
				if snap.DispatchedStreams > cfg.DispatchSize {
					t.Errorf("dispatched %d > D=%d", snap.DispatchedStreams, cfg.DispatchSize)
					return
				}
				_ = srv.liveStreams.Load()
			}
		}()
	}

	pending.Wait()
	close(stop)
	wg.Wait()

	want := int64((writers + 4) * requests)
	if got := srv.Stats().Requests; got != want {
		t.Errorf("requests = %d, want %d", got, want)
	}
}

// TestBufferHitZeroAlloc is the steady-state allocation guard: serving
// a request from an already-staged buffer must not allocate. It pins
// the pooled-buffer and batched-delivery fast path — a regression here
// means a per-request allocation crept back in.
func TestBufferHitZeroAlloc(t *testing.T) {
	bufferHitZeroAlloc(t, false, false)
}

// TestBufferHitZeroAllocWithFlight repeats the allocation guard with
// the flight recorder attached and the measured request carrying a
// trace id, so every iteration records submit and deliver events. The
// always-on recorder is only viable if its hot path is alloc-free too.
func TestBufferHitZeroAllocWithFlight(t *testing.T) {
	bufferHitZeroAlloc(t, true, false)
}

// TestBufferHitZeroAllocWithWindows repeats the guard with the
// sliding-window latency telemetry enabled: the windowed Observe on
// the buffer-hit path must stay allocation-free too (the health
// engine's remaining cost — cursor polling — runs off-path and is
// covered by the bench health budget).
func TestBufferHitZeroAllocWithWindows(t *testing.T) {
	bufferHitZeroAlloc(t, false, true)
}

// TestBufferHitZeroAllocWithSpeculation repeats the guard with the
// full replica stack enabled — mirroring, steering, and speculative
// re-issue. Their cost lives on the fetch path (disk picks, trigger
// timers); the buffer-hit path must not pay a single allocation for
// them.
func TestBufferHitZeroAllocWithSpeculation(t *testing.T) {
	bufferHitZeroAlloc(t, false, true, func(c *Config) {
		c.Replicas = 2
		c.SteerFactor = 2
		c.SpecQuantile = 0.9
	})
}

// TestBufferHitZeroAllocWithSLO repeats the guard with the SLO engine
// attached (flight recorder too, since violations record flight
// events): scoring a delivery — deadline math, verdict counters,
// lateness-window observes — must not cost the buffer-hit path an
// allocation, or the ledger could never run always-on.
func TestBufferHitZeroAllocWithSLO(t *testing.T) {
	bufferHitZeroAlloc(t, true, true, func(c *Config) {
		c.SLOTarget = 50 * time.Millisecond
	})
}

func bufferHitZeroAlloc(t *testing.T, withFlight, withWindows bool, mutate ...func(*Config)) {
	t.Helper()
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.NearSeqWindow = 1 << 20
	// Park the background sweeps so their timer re-arms cannot be
	// charged to the measured loop.
	cfg.GCPeriod = time.Hour
	cfg.EvictIdle = time.Hour
	clock := blockdev.NewRealClock()
	if withWindows {
		cfg.WindowSpan = time.Minute
	}
	for _, m := range mutate {
		m(&cfg)
	}
	disks := 1
	if cfg.Replicas > disks {
		disks = cfg.Replicas
	}
	dev, err := blockdev.NewMemDevice(disks, 1<<30, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if withFlight {
		rec, err := flight.New(clock.Now, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Flight = rec
	}
	srv, err := NewServer(dev, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const req = 64 << 10
	ch := make(chan struct{}, 1)
	done := func(r Response) {
		r.Release()
		ch <- struct{}{}
	}
	// Establish a stream and stage data well past block 14.
	for i := 0; i < 16; i++ {
		if err := srv.Submit(Request{Disk: 0, Offset: int64(i) * req, Length: req, Done: done}); err != nil {
			t.Fatal(err)
		}
		<-ch
	}

	// Re-read a staged block just behind the stream position: a pure
	// buffer hit (near-seq backward match), no fetch, no direct read.
	target := Request{Disk: 0, Offset: 14 * req, Length: req, Done: done}
	if withFlight {
		target.Trace = cfg.Flight.NextTrace()
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := srv.Submit(target); err != nil {
			t.Fatal(err)
		}
		<-ch
	})
	if avg != 0 {
		t.Errorf("buffer-hit path allocates: %.2f allocs/op, want 0", avg)
	}
	st := srv.Stats()
	if st.BufferHits == 0 {
		t.Fatalf("no buffer hits recorded (stats: %+v) — the measured path was not the hit path", st)
	}
	if withFlight {
		n := 0
		for _, ev := range cfg.Flight.Snapshot().Merged() {
			if ev.Trace == target.Trace {
				n++
			}
		}
		if n == 0 {
			t.Fatalf("no flight events carry the measured trace id — the recorder was not on the measured path")
		}
	}
}
