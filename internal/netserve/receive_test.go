package netserve

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"strconv"
	"testing"
	"testing/iotest"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/bufpool"
)

// The receiver's edges: frames cut anywhere by the socket, payloads
// that straddle a chunk's end or outgrow a chunk, responses held while
// their chunk is left behind, and every chunk returned to the pool
// once the read loop is gone. Under -tags invariants bufpool poisons
// each released chunk, so a write into memory a response no longer
// owns panics at the next Get.

// testChunk is the receive chunk of the receiver tests: small, so a
// few dozen frames straddle its end and a modest payload outgrows it.
const testChunk = 4096

// choppedReader returns at most the next of its sizes bytes per Read,
// cycling through them, as a socket returns whatever has arrived.
type choppedReader struct {
	r     io.Reader
	sizes []int
	i     int
}

func (c *choppedReader) Read(p []byte) (int, error) {
	n := c.sizes[c.i%len(c.sizes)]
	c.i++
	if len(p) > n {
		p = p[:n]
	}
	return c.r.Read(p)
}

// frameStream encodes a seeded mix of response frames with the
// reference encoder: data-less frames, error statuses, short payloads,
// payloads up to a chunk long (which straddle chunk ends) and payloads
// up to three chunks long (which outgrow one).
func frameStream(seed int64, v2 bool, frames int) ([]byte, []Response) {
	rng := rand.New(rand.NewSource(seed))
	var wire []byte
	want := make([]Response, frames)
	for i := range want {
		r := Response{ID: rng.Uint64(), Status: uint32(rng.Intn(3))}
		var n int
		switch rng.Intn(4) {
		case 1:
			n = 1 + rng.Intn(64)
		case 2:
			n = 1 + rng.Intn(testChunk)
		case 3:
			n = testChunk + 1 + rng.Intn(2*testChunk)
		}
		if n > 0 {
			r.Data = make([]byte, n)
			rng.Read(r.Data)
		}
		if v2 && rng.Intn(2) == 0 {
			r.Flags = RespPayload
			r.Offset = rng.Int63()
		}
		wire = append(wire, refResponseFrame(v2, r)...)
		want[i] = r
	}
	return wire, want
}

// sameResponse fails the test unless got decodes want, with its data
// in a capped slice that is pooled exactly when the receiver runs in
// payload mode.
func sameResponse(t *testing.T, i int, got, want Response, payload bool) {
	t.Helper()
	if got.ID != want.ID || got.Status != want.Status || got.Flags != want.Flags ||
		got.Offset != want.Offset || !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("frame %d: got id %d status %d flags %d offset %d, %d bytes; want %+v",
			i, got.ID, got.Status, got.Flags, got.Offset, len(got.Data), want)
	}
	if cap(got.Data) != len(got.Data) {
		t.Fatalf("frame %d: data cap %d exceeds its length %d", i, cap(got.Data), len(got.Data))
	}
	if pooled := got.buf != nil; pooled != (payload && len(want.Data) > 0) {
		t.Fatalf("frame %d: pooled = %v in payload mode %v", i, pooled, payload)
	}
}

// TestReceiverSplitReads decodes one frame stream through readers that
// return one byte, a few seeded sizes, or everything per Read: every
// split yields the frames the reference encoder wrote, in v1 (data
// copied out) and v2 (data in place).
func TestReceiverSplitReads(t *testing.T) {
	for _, v2 := range []bool{false, true} {
		wire, want := frameStream(1, v2, 120)
		readers := map[string]func() io.Reader{
			"one-shot": func() io.Reader { return bytes.NewReader(wire) },
			"one-byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(wire)) },
		}
		for _, k := range []int{7, 300, 3 * testChunk} {
			rng := rand.New(rand.NewSource(int64(k)))
			sizes := make([]int, 64)
			for i := range sizes {
				sizes[i] = 1 + rng.Intn(k)
			}
			readers["1.."+strconv.Itoa(k)] = func() io.Reader { return &choppedReader{r: bytes.NewReader(wire), sizes: sizes} }
		}
		for name, src := range readers {
			pool := bufpool.New()
			rx := newReceiver(src(), pool, v2, testChunk)
			for i, w := range want {
				var got Response
				if err := rx.next(&got); err != nil {
					t.Fatalf("v2=%v %s: frame %d: %v", v2, name, i, err)
				}
				sameResponse(t, i, got, w, v2)
				got.Release()
			}
			var end Response
			if err := rx.next(&end); err != io.EOF {
				t.Fatalf("v2=%v %s: after the last frame: %v, want io.EOF", v2, name, err)
			}
			rx.close()
			if out := pool.Stats().CheckedOut; out != 0 {
				t.Errorf("v2=%v %s: %d chunks still checked out", v2, name, out)
			}
		}
	}
}

// TestReceiverHeldResponseKeepsItsBytes holds the first response while
// more than three chunks' worth of later ones are decoded and
// released: the receiver leaves the held response's chunk behind
// instead of sliding over it, and slides the chunks nobody holds.
func TestReceiverHeldResponseKeepsItsBytes(t *testing.T) {
	first := Response{ID: 1, Flags: RespPayload, Offset: 4096, Data: bytes.Repeat([]byte{0x5a}, 1000)}
	wire := refResponseFrame(true, first)
	var later []Response
	for n := 0; n < 3*testChunk+testChunk/2; n += 700 {
		r := Response{ID: uint64(2 + len(later)), Flags: RespPayload, Offset: int64(n),
			Data: bytes.Repeat([]byte{byte(len(later))}, 700)}
		later = append(later, r)
		wire = append(wire, refResponseFrame(true, r)...)
	}
	pool := bufpool.New()
	rx := newReceiver(&choppedReader{r: bytes.NewReader(wire), sizes: []int{333, 1200, 50}}, pool, true, testChunk)
	var held Response
	if err := rx.next(&held); err != nil {
		t.Fatal(err)
	}
	for i, w := range later {
		var got Response
		if err := rx.next(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		sameResponse(t, i, got, w, true)
		got.Release()
		if !bytes.Equal(held.Data, first.Data) {
			t.Fatalf("held response's bytes changed after %d later frames", i+1)
		}
	}
	if held.buf == rx.chunk {
		t.Fatal("the receiver never left the held response's chunk")
	}
	held.Release()
	rx.close()
	if out := pool.Stats().CheckedOut; out != 0 {
		t.Errorf("%d chunks still checked out", out)
	}
}

// choppedConn is a connection whose reads return a few bytes at a
// time.
type choppedConn struct {
	net.Conn
	r choppedReader
}

func (c *choppedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// TestClientSplitReads runs whole clients over a socket whose reads are
// cut into uneven pieces: data-less v1, v1 with data, v2 payloads and
// traced v2 requests all deliver every response intact.
func TestClientSplitReads(t *testing.T) {
	const req = 64 << 10
	cases := []struct {
		name  string
		opts  ClientOptions
		flags uint16
	}{
		{"v1", ClientOptions{}, 0},
		{"v1-data", ClientOptions{}, FlagWantData},
		{"v2", ClientOptions{Payload: true}, FlagWantData},
		{"v2-traced", ClientOptions{Payload: true, Tracing: true}, FlagWantData},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := payloadNode(t, 1, 64<<20, 1<<20, ServerOptions{Payload: true})
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			cc := &choppedConn{Conn: conn}
			cc.r = choppedReader{r: conn, sizes: []int{1, 7, 4093, 100, 65536, 20, 1 << 20}}
			c, err := newClient(cc, tc.opts)
			if err != nil {
				conn.Close()
				t.Fatal(err)
			}
			defer c.Close()
			check := func(stream int, resp *Response) error {
				want := 0
				if tc.flags&FlagWantData != 0 {
					want = req
				}
				if len(resp.Data) != want {
					t.Errorf("stream %d: %d bytes, want %d", stream, len(resp.Data), want)
				}
				if resp.Flags&RespPayload != 0 {
					for i, got := range resp.Data {
						if want := blockdev.Pattern(0, resp.Offset+int64(i)); got != want {
							t.Fatalf("stream %d offset %d byte %d: got %#x want %#x", stream, resp.Offset, i, got, want)
						}
					}
				}
				return nil
			}
			if err := c.RunStreamsFunc(0, 1<<30, 4, 16, req, tc.flags, check); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClientReleasesItsChunk checks the client's pool after its read
// loop is gone, whether Close stopped it or a dead peer did: the loop
// drops its chunk on the way out, and a response still held keeps only
// its own.
func TestClientReleasesItsChunk(t *testing.T) {
	checkGoroutines(t)
	t.Run("close", func(t *testing.T) {
		_, srv := payloadNode(t, 1, 64<<20, 1<<20, ServerOptions{Payload: true})
		for _, payload := range []bool{false, true} {
			c, err := DialOpts(srv.Addr(), ClientOptions{Payload: payload})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.RunStreams(0, 1<<30, 4, 64, 64<<10, FlagWantData); err != nil {
				t.Fatal(err)
			}
			c.Close()
			if out := c.pool.Stats().CheckedOut; out != 0 {
				t.Errorf("payload=%v: %d chunks checked out after Close", payload, out)
			}
		}
	})
	t.Run("dead peer", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		// The peer answers the first request in full, cuts the second
		// response short inside its payload, and hangs up.
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := ReadHello(conn); err != nil {
				return
			}
			WriteHello(conn, Hello{Version: ProtoV2, Feats: FeatPayload})
			for i := 0; i < 2; i++ {
				req, err := ReadRequest(conn)
				if err != nil {
					return
				}
				frame := refResponseFrame(true, Response{ID: req.ID, Flags: RespPayload, Offset: req.Offset,
					Data: bytes.Repeat([]byte{0xc3}, int(req.Length))})
				if i == 1 {
					frame = frame[:len(frame)-10]
				}
				conn.Write(frame)
			}
		}()
		c, err := DialOpts(ln.Addr().String(), ClientOptions{Payload: true})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got := make(chan Response, 2)
		done := func(r Response, _ time.Duration) { got <- r }
		if err := c.Go(0, 0, 0, 1000, FlagWantData, done); err != nil {
			t.Fatal(err)
		}
		held := <-got
		if held.Status != StatusOK || len(held.Data) != 1000 {
			t.Fatalf("first response: status %d, %d bytes", held.Status, len(held.Data))
		}
		if err := c.Go(0, 0, 1000, 1000, FlagWantData, done); err != nil {
			t.Fatal(err)
		}
		if r := <-got; r.Status != StatusDisconnected {
			t.Fatalf("cut response: status %d, want StatusDisconnected", r.Status)
		}
		<-c.readerDone
		if out := c.pool.Stats().CheckedOut; out != 1 {
			t.Fatalf("%d chunks checked out with one response held, want 1", out)
		}
		if !bytes.Equal(held.Data, bytes.Repeat([]byte{0xc3}, 1000)) {
			t.Fatal("held response's bytes changed when the read loop exited")
		}
		held.Release()
		if out := c.pool.Stats().CheckedOut; out != 0 {
			t.Errorf("%d chunks checked out after the read loop exited", out)
		}
	})
}
