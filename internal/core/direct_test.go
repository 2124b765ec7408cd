package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/invariants"
	"seqstream/internal/iostack"
	"seqstream/internal/sim"
)

// instantDevice completes every read inline with the MemDevice
// pattern and allocates nothing, so an allocation count covers core
// alone.
type instantDevice struct{}

func (instantDevice) Disks() int         { return 1 }
func (instantDevice) Capacity(int) int64 { return 1 << 30 }
func (instantDevice) ReadAt(disk int, off, length int64, done func([]byte, error)) error {
	return blockdev.ErrBadRequest
}

func (instantDevice) ReadInto(disk int, off, length int64, buf []byte, done func([]byte, error)) error {
	for i := range buf {
		buf[i] = blockdev.Pattern(disk, off+int64(i))
	}
	done(buf, nil)
	return nil
}

// directNode is a one-disk server on an instant device, with the
// collector and eviction parked so no timer runs beside the measured
// reads.
func directNode(t *testing.T) *Server {
	t.Helper()
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.GCPeriod = time.Hour
	cfg.EvictIdle = time.Hour
	srv, err := NewServer(instantDevice{}, blockdev.NewRealClock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// directOffset spreads reads over the disk's regions, always at a
// region's first block: each region sees one distinct block however
// often it is read, so no read is ever classified sequential.
func directOffset(srv *Server, k int) int64 {
	span := srv.cfg.BlockSize * int64(srv.cfg.RegionBlocks)
	return int64(k*7919%256) * span
}

// TestDirectReadZeroAlloc pins the direct path's steady state: the
// read is queued with a recycled record, its device callback is bound
// once, and its completion rides the reaper's flush, so a direct read
// allocates nothing.
func TestDirectReadZeroAlloc(t *testing.T) {
	if invariants.Enabled {
		t.Skip("under the invariants tag the pool's poison check allocates on every Get")
	}
	srv := directNode(t)
	const req = 64 << 10
	ch := make(chan struct{}, 1)
	done := func(r Response) {
		if r.Err != nil || !r.Direct {
			t.Errorf("direct read: err %v, direct %v", r.Err, r.Direct)
		}
		r.Release()
		ch <- struct{}{}
	}
	k := 0
	read := func() {
		if err := srv.Submit(Request{Disk: 0, Offset: directOffset(srv, k), Length: req, Done: done}); err != nil {
			t.Fatal(err)
		}
		k++
		<-ch
	}
	for i := 0; i < 512; i++ {
		read()
	}
	if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
		t.Errorf("direct read allocates %.2f times, want 0", allocs)
	}
	if got := srv.Stats().DirectReads; got != int64(k) {
		t.Errorf("%d direct reads booked, want %d", got, k)
	}
}

// TestDirectReadCompletesInline: on a device that completes inline, a
// direct read's Done has run exactly once by the time Submit returns,
// with the device's bytes, and its pooled buffer is released once.
func TestDirectReadCompletesInline(t *testing.T) {
	srv := directNode(t)
	const req = 64 << 10
	for k := 0; k < 64; k++ {
		off := directOffset(srv, k)
		calls := 0
		before := srv.Pool().Stats()
		err := srv.Submit(Request{Disk: 0, Offset: off, Length: req, Done: func(r Response) {
			calls++
			checkBytes(t, r, 0, off, req)
			r.Release()
		}})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Fatalf("read %d: Done ran %d times before Submit returned, want 1", k, calls)
		}
		after := srv.Pool().Stats()
		if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != 1 || puts != 1 || after.CheckedOut != 0 {
			t.Fatalf("read %d: %d gets, %d puts, %d checked out; want 1, 1, 0", k, gets, puts, after.CheckedOut)
		}
	}
}

// TestDirectResubmitChainBounded re-submits a direct read from each
// completion, 10,000 deep. A nested completion is queued for the
// reaper already running below it, so the chain runs as a loop, not a
// recursion: every read completes before the first Submit returns, in
// order, with the flush depth and the stack bounded throughout.
func TestDirectResubmitChainBounded(t *testing.T) {
	srv := directNode(t)
	sh := srv.shards[0]
	const (
		req   = 4 << 10
		chain = 10000
	)
	var (
		got              []int
		maxDepth         int32
		firstPCs, maxPCs int
		pcs              [1024]uintptr
		submit           func(k int)
	)
	submit = func(k int) {
		err := srv.Submit(Request{Disk: 0, Offset: directOffset(srv, k), Length: req, Done: func(r Response) {
			checkBytes(t, r, 0, directOffset(srv, k), req)
			r.Release()
			got = append(got, k)
			if d := sh.flushDepth.Load(); d > maxDepth {
				maxDepth = d
			}
			n := runtime.Callers(0, pcs[:])
			if k == 0 {
				firstPCs = n
			}
			if n > maxPCs {
				maxPCs = n
			}
			if k+1 < chain {
				submit(k + 1)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	submit(0)
	if len(got) != chain {
		t.Fatalf("%d of %d reads completed when the first Submit returned", len(got), chain)
	}
	for i, k := range got {
		if k != i {
			t.Fatalf("completion %d was read %d: out of order", i, k)
		}
	}
	if maxDepth > maxFlushDepth {
		t.Errorf("flush depth reached %d, bound %d", maxDepth, maxFlushDepth)
	}
	if maxPCs > firstPCs+32 {
		t.Errorf("stack grew from %d to %d frames along the chain", firstPCs, maxPCs)
	}
}

// zeroCountClock counts the zero-delay callbacks the server schedules.
// Single completions ride the shard's flush, so no failure path below
// may hand its waiter to the clock.
type zeroCountClock struct {
	blockdev.Clock
	zero int
}

func (c *zeroCountClock) Schedule(d time.Duration, fn func()) func() {
	if d == 0 {
		c.zero++
	}
	return c.Clock.Schedule(d, fn)
}

// flushNode is scriptNode with the server on a zeroCountClock; the
// device keeps the engine's own clock.
func flushNode(t *testing.T, rules []blockdev.FaultRule, cfg Config) (*testNode, *zeroCountClock) {
	t.Helper()
	eng := sim.NewEngine()
	host, err := iostack.New(eng, iostack.BaseConfig(iostack.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	simDev, err := blockdev.NewSimDevice(host)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := blockdev.NewScriptDevice(simDev, blockdev.NewSimClock(eng), rules)
	if err != nil {
		t.Fatal(err)
	}
	clock := &zeroCountClock{Clock: blockdev.NewSimClock(eng)}
	srv, err := NewServer(sd, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return &testNode{eng: eng, host: host, dev: simDev, clock: clock, server: srv}, clock
}

// TestFailureCompletionsRideTheFlush: a breaker fast-fail completes
// inside Submit, and the waiters of a failed or timed-out fetch
// complete in the flush that ends the failing hold — each exactly
// once, and none through a zero-delay timer.
func TestFailureCompletionsRideTheFlush(t *testing.T) {
	t.Run("fast-fail", func(t *testing.T) {
		cfg := DefaultConfig(64<<20, 1<<20)
		cfg.BreakerThreshold = 1
		cfg.BreakerCooldown = time.Hour
		n, clock := flushNode(t, []blockdev.FaultRule{{Disk: 0, Mode: blockdev.FaultError, From: 1, To: 2}}, cfg)
		if r := n.do(t, Request{Disk: 0, Offset: 0, Length: failReq}); r.Err == nil {
			t.Fatal("the scripted read did not fail")
		}
		for i := 1; i <= 8; i++ {
			calls := 0
			var resp Response
			err := n.server.Submit(Request{Disk: 0, Offset: int64(i) * failReq, Length: failReq,
				Done: func(r Response) { calls++; resp = r }})
			if err != nil {
				t.Fatal(err)
			}
			if calls != 1 || !errors.Is(resp.Err, ErrDiskDegraded) {
				t.Fatalf("fast-fail %d: Done ran %d times before Submit returned (err %v), want once with ErrDiskDegraded",
					i, calls, resp.Err)
			}
		}
		if err := n.eng.Run(); err != nil {
			t.Fatal(err)
		}
		if clock.zero != 0 {
			t.Errorf("%d zero-delay callbacks scheduled", clock.zero)
		}
	})

	waiters := func(t *testing.T, rule blockdev.FaultRule, mutate func(*Config), want error) {
		cfg := DefaultConfig(64<<20, 1<<20)
		mutate(&cfg)
		n, clock := flushNode(t, []blockdev.FaultRule{rule}, cfg)
		next := detectStream(t, n, 0)
		const waiting = 4
		calls := make([]int, waiting)
		errs := make([]error, waiting)
		for i := 0; i < waiting; i++ {
			i := i
			err := n.server.Submit(Request{Disk: 0, Offset: next + int64(i)*failReq, Length: failReq,
				Done: func(r Response) { calls[i]++; errs[i] = r.Err }})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := n.eng.Run(); err != nil {
			t.Fatal(err)
		}
		for i := range calls {
			if calls[i] != 1 || !errors.Is(errs[i], want) {
				t.Errorf("waiter %d: Done ran %d times (err %v), want once with %v", i, calls[i], errs[i], want)
			}
		}
		if clock.zero != 0 {
			t.Errorf("%d zero-delay callbacks scheduled", clock.zero)
		}
	}
	t.Run("fetch-error", func(t *testing.T) {
		waiters(t, blockdev.FaultRule{Disk: 0, Mode: blockdev.FaultError, MinLen: 1 << 20, Persistent: true},
			func(*Config) {}, blockdev.ErrInjectedPersistent)
	})
	t.Run("fetch-timeout", func(t *testing.T) {
		waiters(t, blockdev.FaultRule{Disk: 0, Mode: blockdev.FaultHang, MinLen: 1 << 20},
			func(c *Config) { c.FetchTimeout = 50 * time.Millisecond }, ErrFetchTimeout)
	})
}
