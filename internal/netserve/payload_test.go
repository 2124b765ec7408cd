package netserve

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/core"
)

// payloadNode builds a core server over a pattern-filled memory
// device plus a netserve server with the given options.
func payloadNode(t *testing.T, disks int, memory, readAhead int64, opts ServerOptions) (*core.Server, *Server) {
	t.Helper()
	return payloadNodeTuned(t, disks, memory, readAhead, opts, nil)
}

// payloadNodeTuned is payloadNode with a hook to adjust the core
// configuration.
func payloadNodeTuned(t *testing.T, disks int, memory, readAhead int64, opts ServerOptions,
	tune func(*core.Config)) (*core.Server, *Server) {
	t.Helper()
	dev, err := blockdev.NewMemDevice(disks, 1<<30, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(memory, readAhead)
	cfg.NearSeqWindow = readAhead
	if tune != nil {
		tune(&cfg)
	}
	node, err := core.NewServer(dev, blockdev.NewRealClock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	srv, err := NewServerOpts(node, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return node, srv
}

// TestPayloadNegotiation covers the handshake matrix: both sides
// payload-capable delivers verified bytes in v2 frames with the
// offset echo; a declining server downgrades the client to data-less
// v1; a v1 client against a payload server works unchanged.
func TestPayloadNegotiation(t *testing.T) {
	const req = 64 << 10
	cases := []struct {
		name             string
		server, client   bool
		wantNegotiated   bool
		wantPayloadFrame bool
	}{
		{"both", true, true, true, true},
		{"server-declines", false, true, false, false},
		{"v1-client", true, false, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := payloadNode(t, 1, 64<<20, 1<<20, ServerOptions{Payload: tc.server})
			c, err := DialOpts(srv.Addr(), ClientOptions{Payload: tc.client})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.Payload() != tc.wantNegotiated {
				t.Fatalf("negotiated payload = %v, want %v", c.Payload(), tc.wantNegotiated)
			}
			check := func(stream int, resp *Response) error {
				hasFrame := resp.Flags&RespPayload != 0
				if hasFrame != tc.wantPayloadFrame {
					t.Errorf("stream %d: payload framing = %v, want %v", stream, hasFrame, tc.wantPayloadFrame)
				}
				if len(resp.Data) != req {
					t.Errorf("stream %d: %d payload bytes, want %d", stream, len(resp.Data), req)
				}
				if tc.wantPayloadFrame {
					for i, got := range resp.Data {
						if want := blockdev.Pattern(0, resp.Offset+int64(i)); got != want {
							t.Fatalf("stream %d offset %d byte %d: got %#x want %#x",
								stream, resp.Offset, i, got, want)
						}
					}
				}
				return nil
			}
			if err := c.RunStreamsFunc(0, 1<<30, 4, 16, req, FlagWantData, check); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBufferHitZeroAllocWithPayload extends the steady-state
// allocation guard across the wire path: serving a request from an
// already-staged buffer, detaching the pooled buffer onto a v2
// payload frame, writing it with the vectored ResponseWriter, and
// releasing it must not allocate. A regression here means the
// zero-copy hand-off grew a per-response allocation (a closure, a
// gather-list rebuild, a header escape).
func TestBufferHitZeroAllocWithPayload(t *testing.T) {
	dev, err := blockdev.NewMemDevice(1, 1<<30, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(64<<20, 1<<20)
	cfg.NearSeqWindow = 1 << 20
	// Park the background sweeps so their timer re-arms cannot be
	// charged to the measured loop.
	cfg.GCPeriod = time.Hour
	cfg.EvictIdle = time.Hour
	srv, err := core.NewServer(dev, blockdev.NewRealClock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const req = 64 << 10
	fw := NewResponseWriter(discardWriter{}, true)
	var frame Response // reused per completion; the closure below owns it
	var failed atomic.Bool
	ch := make(chan struct{}, 1)
	const target = 14 * req
	done := func(r core.Response) {
		frame = Response{
			ID:     1,
			Status: StatusOK,
			Flags:  RespPayload,
			Offset: target,
			Data:   r.Data,
			buf:    r.TakeBuf(),
		}
		if err := fw.WriteResponse(&frame); err != nil {
			failed.Store(true)
		}
		frame.Release()
		ch <- struct{}{}
	}
	// Establish a stream and stage data well past the re-read block.
	for i := 0; i < 16; i++ {
		if err := srv.Submit(core.Request{Disk: 0, Offset: int64(i) * req, Length: req, Done: done}); err != nil {
			t.Fatal(err)
		}
		<-ch
	}

	avg := testing.AllocsPerRun(200, func() {
		if err := srv.Submit(core.Request{Disk: 0, Offset: target, Length: req, Done: done}); err != nil {
			t.Fatal(err)
		}
		<-ch
	})
	if avg != 0 {
		t.Errorf("payload buffer-hit path allocates: %.2f allocs/op, want 0", avg)
	}
	if failed.Load() {
		t.Fatal("ResponseWriter reported an error")
	}
	if st := srv.Stats(); st.BufferHits == 0 {
		t.Fatalf("no buffer hits recorded (stats: %+v) — the measured path was not the hit path", st)
	}
}

// discardWriter is io.Discard without the ReadFrom fast path, so the
// vectored write exercises net.Buffers' plain consume loop.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestSlowReaderBackpressure wedges a payload connection's reader and
// checks that staged buffers pinned by the wire stay bounded: the
// response channel plus the socket give a fixed slack, and beyond it
// completions (and therefore staging) must stall rather than check
// out unbounded pool memory. It runs under -race in CI.
func TestSlowReaderBackpressure(t *testing.T) {
	const (
		memory   = 8 << 20
		ra       = int64(256 << 10)
		req      = int64(64 << 10)
		requests = 1024 // 64 MiB if nothing ever pushed back
	)
	node, srv := payloadNode(t, 1, memory, ra, ServerOptions{Payload: true})

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
	// Issue every request up front and then read nothing: the server
	// completes them into the writer, which fills the socket and the
	// response channel and then blocks.
	for i := 0; i < requests; i++ {
		err := WriteRequest(conn, Request{
			ID: uint64(i), Disk: 0, Flags: FlagWantData,
			Offset: int64(i) * req, Length: req,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	waitWedged(srv)

	// The budget: M of staging, plus the responses the channel (64
	// frames) and one in-flight batch (64 more) can pin. Each response
	// retains its whole staging buffer (R), but R/req consecutive
	// responses share one, so the wire can hold at most
	// ~(64+64)/(R/req)+1 detached buffers — call it 40·R with generous
	// slack. Unbounded checkout would blow past this on its way to
	// 64 MiB.
	const budget = memory + 40*ra
	if peak := node.Pool().Stats().PeakBytesOut; peak > budget {
		t.Fatalf("slow reader pinned %d pooled bytes (budget %d): wire backpressure is not bounding checkouts", peak, budget)
	}

	// Release the wedge by killing the connection: the writer's write
	// fails, it drains the channel releasing every queued response
	// exactly once, and the only remaining checkouts are the staged
	// buffers the scheduler itself still owns.
	conn.Close()
	waitWireReleased(t, node)
}

// waitWedged returns once the pipeline behind a peer that reads
// nothing has wedged: the served-byte counter stops advancing when the
// writer is stuck in a write and the response channel is full.
func waitWedged(srv *Server) {
	last, stable := int64(-1), 0
	for stable < 20 {
		time.Sleep(10 * time.Millisecond)
		if n := srv.Stats().BytesRead; n == last {
			stable++
		} else {
			last, stable = n, 0
		}
	}
}

// waitWireReleased polls until every wire-held buffer reference is
// dropped: pool checkouts equal the scheduler's live staged buffers.
// A leak keeps checkouts above; a double release drives them below
// (the pool absorbs it, but the counters diverge) — either way the
// equality never settles and the test fails.
func waitWireReleased(t *testing.T, node *core.Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		out := node.Pool().Stats().CheckedOut
		live := node.Stats().LiveBuffers
		if out == live {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool CheckedOut = %d but LiveBuffers = %d: wire path leaked or double-released", out, live)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMidWriteDisconnectReleasesOnce kills a payload client while
// responses are queued and mid-write, then checks the server released
// every in-flight staged buffer exactly once: the writer releases the
// response it was writing, and its drain loop releases everything
// still buffered in the channel. It runs under -race in CI.
func TestMidWriteDisconnectReleasesOnce(t *testing.T) {
	const req = int64(512 << 10)
	node, srv := payloadNode(t, 1, 64<<20, 1<<20, ServerOptions{Payload: true})

	c, err := DialOpts(srv.Addr(), ClientOptions{Payload: true})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Payload() {
		t.Fatal("payload not negotiated")
	}
	// Fire a burst of large async reads and slam the connection shut
	// after the first few complete, so the writer dies with frames
	// queued behind it.
	var done atomic.Int64
	for i := 0; i < 200; i++ {
		err := c.Go(0, 0, int64(i)*req, req, FlagWantData, func(resp Response, _ time.Duration) {
			resp.Release()
			done.Add(1)
		})
		if err != nil {
			break // connection already torn down mid-burst: fine
		}
	}
	for done.Load() < 5 {
		time.Sleep(time.Millisecond)
	}
	c.Close()
	waitWireReleased(t, node)
	if st := srv.Stats(); st.DroppedResponses == 0 {
		t.Logf("note: no responses were dropped (disconnect landed after the burst drained); counters still prove exactly-once release")
	}
}
