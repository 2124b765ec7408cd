package netserve

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqstream/internal/core"
)

// The wire flushes when it is about to block: a client's frames leave
// before its read loop waits on the socket, a server's before its
// writer waits on the response queue. These tests hold the rule's
// edges: nothing is ever left corked, a batch that dies mid-write is
// accounted for frame by frame, a failed flush completes every handle
// once, and the steady state allocates nothing.

// TestCorkedFramesAlwaysFlush is the liveness half. One stream with
// one request outstanding issues every request from the previous
// one's callback, so every frame takes the corked path and depends on
// the read loop to flush it; with RequestTimeout set, a frame left in
// the buffer would expire its handle and fail the run.
func TestCorkedFramesAlwaysFlush(t *testing.T) {
	checkGoroutines(t)
	_, srv := payloadNode(t, 1, 64<<20, 1<<20, ServerOptions{})
	c, err := DialOpts(srv.Addr(), ClientOptions{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const pingPongs = 10000
	if err := c.RunStreams(0, 1<<30, 1, pingPongs, 64<<10, 0); err != nil {
		t.Fatalf("ping-pong: %v", err)
	}
	if got := srv.Stats().Requests; got != pingPongs {
		t.Errorf("server saw %d requests, want %d", got, pingPongs)
	}

	// The connection is now idle: the read loop is parked in a socket
	// read and no response traffic will come to uncork anything. A Go
	// from this goroutine must put its frame on the wire by itself.
	roundTrip(t, c)
}

// TestGoRightAfterHandshakeFlushes covers the one moment the cork is
// up with no callback running: the handshake reply was read through
// the flushing reader on the dialing goroutine, and the read loop has
// not yet reached its first socket read.
func TestGoRightAfterHandshakeFlushes(t *testing.T) {
	_, srv := payloadNode(t, 1, 64<<20, 1<<20, ServerOptions{Payload: true})
	for i := 0; i < 20; i++ {
		c, err := DialOpts(srv.Addr(), ClientOptions{Payload: true})
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, c)
		c.Close()
	}
}

// roundTrip issues one request from the calling goroutine and waits
// for its response.
func roundTrip(t *testing.T, c *Client) {
	t.Helper()
	got := make(chan Response, 1)
	if err := c.Go(0, 0, 0, 4096, 0, func(r Response, _ time.Duration) { got <- r }); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.Status != StatusOK {
			t.Fatalf("status %d", r.Status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the server: frame left in the outgoing buffer")
	}
}

// TestMidBatchDisconnectAccountsEveryFrame kills a payload peer while
// the writer is wedged with multi-frame batches in flight. Every
// staged buffer must come back exactly once, and every completion
// must be accounted written or dropped — none lost in a half-sent
// batch, none counted twice.
func TestMidBatchDisconnectAccountsEveryFrame(t *testing.T) {
	checkGoroutines(t)
	const (
		req      = int64(64 << 10)
		requests = 512
	)
	node, srv := payloadNode(t, 1, 8<<20, 256<<10, ServerOptions{Payload: true})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteHello(conn, Hello{Version: ProtoV2, Feats: FeatPayload}); err != nil {
		t.Fatal(err)
	}
	if h, err := ReadHello(conn); err != nil || h.Feats&FeatPayload == 0 {
		t.Fatalf("handshake: feats=%v err=%v", h.Feats, err)
	}
	var frames []byte
	for i := 0; i < requests; i++ {
		frames = appendRequest(frames, Request{ID: uint64(i), Flags: FlagWantData, Offset: int64(i) * req, Length: req})
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	// Read nothing. The writer fills the socket and blocks inside a
	// batch; the queue fills behind it.
	waitWedged(srv)
	if w := srv.stats.written.Load(); w == 0 || w >= requests {
		t.Fatalf("writer not wedged mid-stream: %d of %d responses written", w, requests)
	}
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		written, dropped := srv.stats.written.Load(), st.DroppedResponses
		if st.Requests == requests && written+dropped == requests {
			if dropped == 0 {
				t.Error("no response counted dropped though the peer died with the writer wedged")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests: %d written + %d dropped", st.Requests, written, dropped)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitWireReleased(t, node)
}

// flakyConn fails every Write once broken is set. Reads pass through,
// so the client still sees the server's responses.
type flakyConn struct {
	net.Conn
	broken atomic.Bool
}

var errFlaky = errors.New("flaky: write refused")

func (c *flakyConn) Write(p []byte) (int, error) {
	if c.broken.Load() {
		return 0, errFlaky
	}
	return c.Conn.Write(p)
}

// TestFlushFailureCompletesEveryHandleOnce breaks the write side under
// the read loop's flush, the one carrying the frames callbacks queued
// while the cork was up. Go has already returned nil for those, so
// each must be completed by the drain, exactly once, with
// StatusDisconnected; at no point may a request see both an error
// from Go and its callback.
func TestFlushFailureCompletesEveryHandleOnce(t *testing.T) {
	checkGoroutines(t)
	_, srv := payloadNode(t, 1, 64<<20, 1<<20, ServerOptions{})
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fc := &flakyConn{Conn: raw}
	c, err := newClient(fc, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const lanes, perLane = 8, 50
	var mu sync.Mutex
	accepted := 0                    // Go calls that returned nil
	calls := make(map[int]int)       // request → callbacks seen
	statuses := make(map[int]uint32) // request → status of its callback
	next := 0
	var issue func(lane, i int)
	issue = func(lane, i int) {
		if i == perLane {
			return
		}
		if lane == 0 && i == perLane/2 {
			// From here on every flush fails: the one that would carry
			// this callback's follow-up, and any Go on another lane.
			fc.broken.Store(true)
		}
		mu.Lock()
		id := next
		next++
		mu.Unlock()
		err := c.Go(lane, 0, int64(lane)<<24+int64(i)*4096, 4096, 0, func(r Response, _ time.Duration) {
			mu.Lock()
			calls[id]++
			statuses[id] = r.Status
			mu.Unlock()
			if r.Status == StatusOK {
				issue(lane, i+1)
			}
		})
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			accepted++
		} else if calls[id] != 0 {
			t.Errorf("request %d: Go returned %v and its callback ran", id, err)
		}
	}
	for lane := 0; lane < lanes; lane++ {
		issue(lane, 0)
	}
	// The failed flush closes the connection; the read loop drains the
	// pending map on its way out.
	select {
	case <-c.readerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("read loop still running after a failed flush")
	}
	// An uncorked Go on the dead connection: error, and no callback.
	if err := c.Go(0, 0, 0, 4096, 0, func(Response, time.Duration) {
		t.Error("callback ran for a request Go refused")
	}); err == nil {
		t.Error("Go succeeded on a connection whose flush failed")
	}

	mu.Lock()
	defer mu.Unlock()
	if !fc.broken.Load() {
		t.Fatal("the write side was never broken")
	}
	disconnected := 0
	for id, n := range calls {
		if n != 1 {
			t.Errorf("request %d completed %d times", id, n)
		}
		switch statuses[id] {
		case StatusOK:
		case StatusDisconnected:
			disconnected++
		default:
			t.Errorf("request %d: status %d", id, statuses[id])
		}
	}
	if len(calls) != accepted {
		t.Errorf("%d requests accepted by Go, %d completed", accepted, len(calls))
	}
	if disconnected == 0 {
		t.Error("no request was failed with StatusDisconnected")
	}
	if n := outstanding(c); n != 0 {
		t.Errorf("Outstanding = %d after the drain", n)
	}
	if !errors.Is(c.Err(), errFlaky) {
		t.Errorf("terminal error = %v, want the flush failure", c.Err())
	}
}

// TestUncorkedFlushFailureReturnsError is the other flush: Go's own,
// on an idle connection with the cork down. The frame was never sent,
// so Go reports the error itself and the callback must not run.
func TestUncorkedFlushFailureReturnsError(t *testing.T) {
	checkGoroutines(t)
	_, srv := payloadNode(t, 1, 64<<20, 1<<20, ServerOptions{})
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fc := &flakyConn{Conn: raw}
	c, err := newClient(fc, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	roundTrip(t, c)
	// The response's callback ran with the cork up; wait for the read
	// loop to go back to the socket, which lowers it.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.wmu.Lock()
		corked := c.corked
		c.wmu.Unlock()
		if !corked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cork still up on an idle connection")
		}
	}

	fc.broken.Store(true)
	var ran atomic.Bool
	err = c.Go(0, 0, 4096, 4096, 0, func(Response, time.Duration) { ran.Store(true) })
	if !errors.Is(err, errFlaky) {
		t.Fatalf("Go = %v, want the flush failure", err)
	}
	select {
	case <-c.readerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("a failed flush left the connection open")
	}
	if ran.Load() {
		t.Error("Go returned an error and the callback ran")
	}
	if n := outstanding(c); n != 0 {
		t.Errorf("Outstanding = %d", n)
	}
}

// TestProtocolErrorsAreCounted sends the two frames a server must
// refuse — wrong magic, and a length past MaxLength — plus a frame cut
// off inside its trace extension, and checks each ends its connection
// as a counted error, while a connection that just closes is not one.
func TestProtocolErrorsAreCounted(t *testing.T) {
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	badMagic := appendRequest(nil, Request{ID: 1, Length: 4096})
	badMagic[0] ^= 0xff
	cases := []struct {
		name   string
		frames []byte
		errors int64
	}{
		{"clean close", nil, 0},
		{"clean close after a request", appendRequest(nil, Request{ID: 1, Length: 4096}), 0},
		{"bad magic", badMagic, 1},
		{"17 MiB length", appendRequest(nil, Request{ID: 1, Length: 17 << 20}), 1},
		{"truncated trace extension", appendRequest(nil, Request{ID: 1, Length: 4096, Trace: 9})[:reqHeaderSize+3], 1},
		{"truncated header", appendRequest(nil, Request{ID: 1})[:10], 1},
	}
	for _, tc := range cases {
		before := srv.Stats()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(tc.frames); err != nil {
			t.Fatal(err)
		}
		// Half-close: the server reads what was sent, then EOF. It
		// hangs up once it has answered (or refused) everything.
		conn.(*net.TCPConn).CloseWrite()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: server never hung up", tc.name)
		}
		conn.Close()
		if got := srv.Stats().Errors - before.Errors; got != tc.errors {
			t.Errorf("%s: Errors grew by %d, want %d", tc.name, got, tc.errors)
		}
	}
}

// mallocsPer runs f n times and returns the process's heap allocations
// per run. Unlike testing.AllocsPerRun it does not round down, so a
// share of an allocation per request is visible.
func mallocsPer(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestFramingZeroAlloc pins the three per-request codec steps a
// connection runs in its steady state at zero allocations.
func TestFramingZeroAlloc(t *testing.T) {
	req := Request{ID: 7, Disk: 3, Offset: 1 << 30, Length: 64 << 10, Trace: 0xabc}
	out := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(1000, func() { out = appendRequest(out[:0], req) }); n != 0 {
		t.Errorf("request encode: %v allocs/op, want 0", n)
	}

	src := bytes.NewReader(out)
	dec := decoder{r: src}
	if n := testing.AllocsPerRun(1000, func() {
		src.Reset(out)
		if got, err := dec.readRequest(); err != nil || got.ID != req.ID || got.Trace != req.Trace {
			t.Fatalf("decode: %+v, %v", got, err)
		}
	}); n != 0 {
		t.Errorf("request decode: %v allocs/op, want 0", n)
	}

	for _, v2 := range []bool{false, true} {
		var frame bytes.Buffer
		resp := Response{ID: 7, Status: StatusOK, Flags: RespPayload, Offset: 1 << 30}
		if err := NewResponseWriter(&frame, v2).WriteResponse(&resp); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(1000, func() {
			src.Reset(frame.Bytes())
			if got, err := dec.readResponse(v2, nil); err != nil || got.ID != resp.ID {
				t.Fatalf("decode: %+v, %v", got, err)
			}
		}); n != 0 {
			t.Errorf("response decode (v2=%v): %v allocs/op, want 0", v2, n)
		}
	}
}

// TestLoopbackRoundTripAllocs pins the whole data-less wire path —
// encode, flush, decode, call record, completion, batch write, decode,
// dispatch — at no allocation of its own: a sequential stream's round
// trips over loopback allocate no more per request than the same
// stream submitted to the storage node in-process (whose share is the
// read-ahead fetch each R/request-size requests).
func TestLoopbackRoundTripAllocs(t *testing.T) {
	const (
		req  = 64 << 10
		runs = 2000
	)
	cfg := func(c *core.Config) {
		// Park the background sweeps so their timers are not charged
		// to the measured loop.
		c.GCPeriod = time.Hour
		c.EvictIdle = time.Hour
	}
	node, srv := payloadNodeTuned(t, 1, 64<<20, 1<<20, ServerOptions{}, cfg)
	c, err := DialOpts(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ch := make(chan struct{}, 1)
	var off int64
	wireDone := func(r Response, _ time.Duration) {
		if r.Status != StatusOK {
			t.Errorf("status %d", r.Status)
		}
		ch <- struct{}{}
	}
	wire := mallocsPer(runs, func() {
		if err := c.Go(0, 0, off, req, 0, wireDone); err != nil {
			t.Fatal(err)
		}
		off += req
		<-ch
	})

	coreDone := func(r core.Response) {
		r.Release()
		ch <- struct{}{}
	}
	off = 512 << 20 // a second stream, clear of the first one's read-ahead
	inProcess := mallocsPer(runs, func() {
		if err := node.Submit(core.Request{Disk: 0, Offset: off, Length: req, Done: coreDone}); err != nil {
			t.Fatal(err)
		}
		off += req
		<-ch
	})
	t.Logf("allocations per request: %.3f over the wire, %.3f in-process", wire, inProcess)
	// The slack covers what the runtime itself allocates while two
	// more goroutines park and wake around each request.
	if wire > inProcess+0.1 {
		t.Errorf("wire round trip allocates %.3f per request, the core alone %.3f", wire, inProcess)
	}
}

// TestLoopbackPayloadRoundTripAllocs is TestLoopbackRoundTripAllocs on
// a payload connection: the staged bytes leave in a v2 frame, land in
// the client's receive chunk and are handed to the callback in place,
// and none of that allocates beyond what the data-less wire may.
func TestLoopbackPayloadRoundTripAllocs(t *testing.T) {
	const (
		req  = 64 << 10
		runs = 2000
	)
	cfg := func(c *core.Config) {
		c.GCPeriod = time.Hour
		c.EvictIdle = time.Hour
	}
	node, srv := payloadNodeTuned(t, 1, 64<<20, 1<<20, ServerOptions{Payload: true}, cfg)
	c, err := DialOpts(srv.Addr(), ClientOptions{Payload: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Payload() {
		t.Fatal("payload not negotiated")
	}

	ch := make(chan struct{}, 1)
	var off int64
	wireDone := func(r Response, _ time.Duration) {
		if r.Status != StatusOK || len(r.Data) != req {
			t.Errorf("status %d, %d bytes", r.Status, len(r.Data))
		}
		r.Release()
		ch <- struct{}{}
	}
	wire := mallocsPer(runs, func() {
		if err := c.Go(0, 0, off, req, FlagWantData, wireDone); err != nil {
			t.Fatal(err)
		}
		off += req
		<-ch
	})

	coreDone := func(r core.Response) {
		r.Release()
		ch <- struct{}{}
	}
	off = 512 << 20
	inProcess := mallocsPer(runs, func() {
		if err := node.Submit(core.Request{Disk: 0, Offset: off, Length: req, Done: coreDone}); err != nil {
			t.Fatal(err)
		}
		off += req
		<-ch
	})
	t.Logf("allocations per request: %.3f over the payload wire, %.3f in-process", wire, inProcess)
	// The data-less wire's bound: the core's own share plus the
	// runtime's for the two goroutines that park and wake per request.
	if wire > inProcess+0.1 {
		t.Errorf("payload round trip allocates %.3f per request, the core alone %.3f", wire, inProcess)
	}
}
