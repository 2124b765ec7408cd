package netserve

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/core"
)

// checkGoroutines fails the test if goroutines leak past the test's
// own cleanups. Register it first so its cleanup runs last.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before+3 {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// faultTestNode builds a real-time storage node whose device routes
// through a scriptable fault injector.
func faultTestNode(t *testing.T, rules []blockdev.FaultRule, tune func(*core.Config)) (*core.Server, *blockdev.ScriptDevice) {
	t.Helper()
	mem, err := blockdev.NewMemDevice(2, 1<<30, 200*time.Microsecond, true)
	if err != nil {
		t.Fatal(err)
	}
	sdev, err := blockdev.NewScriptDevice(mem, blockdev.NewRealClock(), rules)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(64<<20, 1<<20)
	cfg.GCPeriod = 100 * time.Millisecond
	if tune != nil {
		tune(&cfg)
	}
	node, err := core.NewServer(sdev, blockdev.NewRealClock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return node, sdev
}

func TestRunStreamsRejectsOverCapacity(t *testing.T) {
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialOpts(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// 32 streams over 1 MB leaves 32 KB spacing, less than the 64 KB
	// request size: the streams would trample each other's offsets.
	err = client.RunStreams(0, 1<<20, 32, 4, 64<<10, 0)
	if err == nil {
		t.Fatal("RunStreams accepted spacing < reqSize")
	}
	if !strings.Contains(err.Error(), "spacing") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestClientDisconnectMidBurstDrainsPending(t *testing.T) {
	checkGoroutines(t)
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialOpts(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	done := make(chan error, 1)
	go func() {
		done <- client.RunStreams(0, 1<<30, 8, 200, 64<<10, 0)
	}()
	time.Sleep(30 * time.Millisecond)
	// Kill the connection out from under the burst. Without the
	// pending-map drain in readLoop, RunStreams' WaitGroup would wait
	// forever on completions that can no longer arrive.
	if err := srv.Close(); err != nil {
		t.Errorf("server Close: %v", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("RunStreams succeeded across a dead connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunStreams deadlocked after disconnect")
	}
	if n := outstanding(client); n != 0 {
		t.Errorf("Outstanding = %d after disconnect drain", n)
	}
	if client.Err() == nil {
		t.Error("client reported no terminal error")
	}
}

func TestClientRequestTimeoutOnHungFetch(t *testing.T) {
	checkGoroutines(t)
	// Hang every read-ahead fetch on disk 0; direct 64 KB reads pass.
	node, sdev := faultTestNode(t, []blockdev.FaultRule{
		{Disk: 0, Mode: blockdev.FaultHang, MinLen: 1 << 20},
	}, nil)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The handler's pending.Wait blocks on the hung fetch's waiter;
	// release it before srv.Close or Close never returns. Registered
	// after the Close defers so it runs first.
	defer sdev.ReleaseHung(nil)
	client, err := DialOpts(srv.Addr(), ClientOptions{RequestTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const reqSize = 64 << 10
	do := func(i int) Response {
		t.Helper()
		got := make(chan Response, 1)
		if err := client.Go(0, 0, int64(i)*reqSize, reqSize, 0,
			func(r Response, _ time.Duration) { got <- r }); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-got:
			return r
		case <-time.After(5 * time.Second):
			t.Fatal("no response (client timeout did not fire)")
			return Response{}
		}
	}
	// Four sequential reads classify the stream and issue the fetch
	// (which hangs); they are themselves served by direct reads.
	for i := 0; i < 4; i++ {
		if r := do(i); r.Status != StatusOK {
			t.Fatalf("detection read %d: status %d", i, r.Status)
		}
	}
	// The fifth read waits on the hung fetch: the client deadline must
	// complete it with StatusTimeout.
	if r := do(4); r.Status != StatusTimeout {
		t.Fatalf("waiter status = %d, want StatusTimeout", r.Status)
	}
	if sdev.Hung() != 1 {
		t.Errorf("Hung = %d, want 1", sdev.Hung())
	}
	if n := outstanding(client); n != 0 {
		t.Errorf("Outstanding = %d after timeout", n)
	}
}

func TestServerWriteTimeoutShedsDeadPeer(t *testing.T) {
	checkGoroutines(t)
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{
		WriteTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A raw peer that requests payloads and never reads a byte: the
	// socket buffer fills, the writer hits its deadline and exits, and
	// the remaining completions must be shed — not block the handler
	// forever on the response channel.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Shrink our receive window so the server's send buffer fills
	// quickly instead of the kernel absorbing megabytes of responses.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(4096)
	}
	// Enough responses to overflow the socket buffers AND the wire's
	// slack — 64 queued frames plus one batch of 64 — so completions
	// reach the blocking send and must be shed when the writer exits.
	for i := 0; i < 400; i++ {
		req := Request{
			ID:     uint64(i),
			Flags:  FlagWantData,
			Offset: (int64(i) % 100) * (8 << 20), // distinct regions: no stream forms
			Length: 128 << 10,
		}
		if err := WriteRequest(conn, req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().DroppedResponses == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no responses shed; stats = %+v", srv.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server Close wedged behind a dead peer")
	}
}

func TestServerIdleTimeoutClosesConnection(t *testing.T) {
	checkGoroutines(t)
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{
		IdleTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialOpts(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Send nothing: the server must hang up on its own.
	deadline := time.Now().Add(5 * time.Second)
	for client.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("idle connection was never closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDialRetry(t *testing.T) {
	// Grab a port with no listener behind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	if _, err := DialRetry(addr, ClientOptions{}, 3, 10*time.Millisecond); err == nil {
		t.Fatal("DialRetry to dead address succeeded")
	} else if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("unexpected error: %v", err)
	}
	// Two backoffs, each at least half its nominal value.
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("DialRetry returned after %v, backoff not applied", elapsed)
	}

	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialRetry(srv.Addr(), ClientOptions{}, 3, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("DialRetry to live server: %v", err)
	}
	client.Close()
}

func TestEndToEndThroughFaultInjector(t *testing.T) {
	checkGoroutines(t)
	// Every third read-ahead fetch fails transiently; the node's retry
	// path must absorb the faults without any client-visible error.
	node, sdev := faultTestNode(t, []blockdev.FaultRule{
		{Mode: blockdev.FaultError, MinLen: 1 << 20, Every: 3},
	}, func(cfg *core.Config) {
		// The rule counts fetches across all four streams, so one
		// stream's retries can each land on a third read when the
		// others' fetches interleave just so; three retries lost that
		// draw in ~3 % of runs on a loaded machine.
		cfg.FetchRetries = 8
		cfg.RetryBackoff = time.Millisecond
	})
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialOpts(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.RunStreams(0, 1<<30, 4, 32, 64<<10, 0); err != nil {
		t.Fatalf("RunStreams through fault injector: %v", err)
	}
	if sdev.Faults() == 0 {
		t.Error("fault injector never fired")
	}
	if got := node.Stats().FetchRetries; got == 0 {
		t.Error("node never retried a fetch")
	}
	if rec := client.Recorder(); rec.TotalRequests() != 128 {
		t.Errorf("TotalRequests = %d, want 128", rec.TotalRequests())
	}
}
