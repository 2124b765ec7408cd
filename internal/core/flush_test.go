package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqstream/internal/blockdev"
)

// awaitFlushed waits until no shard holds queued device calls or
// completions. Work that a flush left behind would never drain, so
// the wait fails instead of passing late.
func awaitFlushed(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		idle := true
		for _, sh := range srv.shards {
			sh.mu.Lock()
			if len(sh.pendingIO) > 0 || len(sh.pendingDone) > 0 {
				idle = false
			}
			sh.mu.Unlock()
		}
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("queued shard work never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// checkBytes verifies a delivered response against the device pattern
// at its first and last byte.
func checkBytes(t *testing.T, r Response, disk int, off, length int64) {
	if r.Err != nil {
		t.Errorf("read %d+%d: %v", off, length, r.Err)
		return
	}
	if int64(len(r.Data)) != length {
		t.Errorf("read %d+%d: got %d bytes", off, length, len(r.Data))
		return
	}
	if r.Data[0] != blockdev.Pattern(disk, off) || r.Data[length-1] != blockdev.Pattern(disk, off+length-1) {
		t.Errorf("read %d+%d: bytes do not match the device", off, length)
	}
}

// TestResubmitChainDeliversOnceInOrder drives the staged-hit flush as a
// client that re-submits from its completion callback: each delivery
// submits the stream's next request synchronously, 64 deep — well past
// maxFlushDepth, so the chain runs nested until the depth bound and
// then continues through the clock-deferred flush. The disk ends where
// the chain does and is staged in full beforehand, so no hit issues a
// fetch: every flush in the chain is the one-completion fast path, and
// nothing but the deferred flush can carry the chain past the bound.
// Every request must complete exactly once, in offset order, and no
// queued work may be left behind.
func TestResubmitChainDeliversOnceInOrder(t *testing.T) {
	const (
		req   = 64 << 10
		warm  = 8
		chain = 64
	)
	dev, err := blockdev.NewMemDevice(1, (warm+chain)*req, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.RequestsPerStream = 8 // an 8 MiB window stages the whole disk
	cfg.GCPeriod = time.Hour  // no collector pass may flush for the chain
	srv, err := NewServer(dev, blockdev.NewRealClock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sh := srv.shards[0]

	// Detect the stream one request at a time, then wait until it has
	// staged the rest of the disk.
	ch := make(chan struct{}, 1)
	for i := 0; i < warm; i++ {
		err := srv.Submit(Request{Disk: 0, Offset: int64(i) * req, Length: req, Done: func(r Response) {
			r.Release()
			ch <- struct{}{}
		}})
		if err != nil {
			t.Fatal(err)
		}
		<-ch
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		sh.mu.Lock()
		st := sh.byExpected.get(0, warm*req)
		staged := st != nil && st.nextFetch == dev.Capacity(0) && !st.fetchInFlight
		sh.mu.Unlock()
		if staged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never staged the disk")
		}
		time.Sleep(time.Millisecond)
	}

	var (
		mu       sync.Mutex
		got      []int64
		maxDepth int32
	)
	finished := make(chan struct{})
	var submit func(k int)
	submit = func(k int) {
		off := int64(warm+k) * req
		err := srv.Submit(Request{Disk: 0, Offset: off, Length: req, Done: func(r Response) {
			checkBytes(t, r, 0, off, req)
			r.Release()
			mu.Lock()
			got = append(got, off)
			if d := sh.flushDepth.Load(); d > maxDepth {
				maxDepth = d
			}
			mu.Unlock()
			if k+1 < chain {
				submit(k + 1)
			} else {
				close(finished)
			}
		}})
		if err != nil {
			t.Errorf("Submit at %d: %v", off, err)
		}
	}
	submit(0)
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("resubmit chain stalled")
	}
	awaitFlushed(t, srv)

	mu.Lock()
	defer mu.Unlock()
	if len(got) != chain {
		t.Fatalf("%d completions, want %d", len(got), chain)
	}
	for k, off := range got {
		if want := int64(warm+k) * req; off != want {
			t.Fatalf("completion %d at offset %d, want %d", k, off, want)
		}
	}
	if maxDepth != maxFlushDepth {
		t.Errorf("deepest nested flush %d, want the bound %d", maxDepth, maxFlushDepth)
	}
	if st := srv.Stats(); st.BufferHits < chain {
		t.Fatalf("%d staged hits, want at least %d: the chain left the staged-hit path", st.BufferHits, chain)
	}
}

// TestConcurrentMixedDeliveryExactlyOnce runs two clients on one shard,
// each pipelining its own sequential stream with scattered reads mixed
// in, so staged hits, requests queued behind in-flight fetches and
// direct reads all flush concurrently against the same queues. Every
// request must complete exactly once with the device's bytes, and
// nothing may stay queued once the clients are done.
func TestConcurrentMixedDeliveryExactlyOnce(t *testing.T) {
	dev, err := blockdev.NewMemDevice(1, 1<<30, 100*time.Microsecond, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(64<<20, 1<<20)
	srv, err := NewServer(dev, blockdev.NewRealClock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		clients = 2
		perC    = 1200
		req     = 64 << 10
		window  = 8
	)
	counts := make([]atomic.Int32, clients*perC)
	var issuers, pending sync.WaitGroup
	pending.Add(clients * perC)
	for c := 0; c < clients; c++ {
		issuers.Add(1)
		go func(c int) {
			defer issuers.Done()
			sem := make(chan struct{}, window)
			next := int64(c) << 28 // each stream starts in its own 256 MiB
			for i := 0; i < perC; i++ {
				id := c*perC + i
				off := next
				if i%5 == 4 {
					// A scattered read in the upper half, which no stream
					// reaches: the direct path.
					off = 1<<29 + int64((i*7919+c*104729)%8192)*req
				} else {
					next += req
				}
				sem <- struct{}{}
				err := srv.Submit(Request{Disk: 0, Offset: off, Length: req, Done: func(r Response) {
					checkBytes(t, r, 0, off, req)
					r.Release()
					counts[id].Add(1)
					<-sem
					pending.Done()
				}})
				if err != nil {
					t.Errorf("Submit: %v", err)
					<-sem
					pending.Done()
				}
			}
		}(c)
	}
	waited := make(chan struct{})
	go func() { issuers.Wait(); pending.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(30 * time.Second):
		t.Fatal("requests never completed")
	}
	awaitFlushed(t, srv)

	for id := range counts {
		if n := counts[id].Load(); n != 1 {
			t.Errorf("request %d completed %d times, want 1", id, n)
		}
	}
	st := srv.Stats()
	if st.BufferHits == 0 || st.QueuedServed == 0 || st.DirectReads == 0 {
		t.Errorf("paths not all exercised: hits %d, queued %d, direct %d",
			st.BufferHits, st.QueuedServed, st.DirectReads)
	}
}
