package netserve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/bufpool"
	"seqstream/internal/metrics"
)

// Client is a stream-emulating client (§5): it multiplexes many
// sequential streams over one TCP connection, keeps a bounded number
// of outstanding requests per stream, and records per-stream
// throughput and response time. Per the paper, each client "issues
// requests from all streams it emulates as soon as it receives a
// response, never exceeding the maximum number of outstanding I/Os",
// keeping a handle for each pending request.
type Client struct {
	conn net.Conn
	rec  *metrics.Recorder
	opts ClientOptions
	// traceBase seeds the per-request trace ids when Tracing is on.
	traceBase uint64
	// payload records that the server granted FeatPayload: responses
	// arrive in v2 frames and payloads stay in the pooled receive
	// chunk they arrived in, which the consumer must Release.
	payload bool
	// pool recycles the read loop's receive chunks.
	pool *bufpool.Pool

	mu           sync.Mutex
	nextID       uint64
	pending      map[uint64]pendingHandle
	closed       bool
	readerExited bool

	// wmu guards the write side: out holds encoded request frames not
	// yet on the socket, and corked says the read loop is between two
	// socket reads — dispatching callbacks — so Go only appends and the
	// read loop flushes the lot before it next blocks. With the cork
	// down out is empty and Go flushes its own frame at once. wmu is
	// held across the socket write, which keeps frames whole and in
	// order; it is never held together with mu.
	wmu    sync.Mutex
	out    []byte //lint:guardedby wmu
	corked bool   //lint:guardedby wmu

	readerDone chan struct{}
	readerErr  error
}

// flushReader is the connection's read side as the read loop's
// receiver sees it. A socket read is the only place the read loop
// can block, so that is where the requests its callbacks issued leave:
// every Read flushes the outgoing buffer and lowers the cork first,
// and raises the cork again once it has bytes to dispatch.
type flushReader struct{ c *Client }

func (r flushReader) Read(p []byte) (int, error) {
	c := r.c
	c.wmu.Lock()
	c.corked = false
	err := c.flushLocked()
	c.wmu.Unlock()
	if err != nil {
		return 0, err
	}
	n, err := c.conn.Read(p)
	c.wmu.Lock()
	c.corked = true
	c.wmu.Unlock()
	return n, err
}

// flushLocked writes the outgoing buffer to the socket with one
// write(2). A failed flush leaves the stream cut mid-frame, so it
// closes the connection: the read loop then fails every pending
// handle.
//
//lint:holds wmu
func (c *Client) flushLocked() error {
	if len(c.out) == 0 {
		return nil
	}
	if c.opts.WriteTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.opts.WriteTimeout))
	}
	_, err := c.conn.Write(c.out)
	c.out = c.out[:0]
	if err != nil {
		c.conn.Close()
	}
	return err
}

type pendingHandle struct {
	stream int
	length int64
	sent   time.Duration
	done   func(Response, time.Duration)
	// cancelTimeout stops the per-request deadline timer (nil when
	// RequestTimeout is disabled).
	cancelTimeout func()
}

// ClientOptions tune a client's failure handling. The zero value —
// wall clock, no deadlines — matches the original trusting behavior.
type ClientOptions struct {
	// Clock timestamps requests and drives the request-timeout timers.
	// Nil uses the wall clock. It must be safe for concurrent use: the
	// read loop queries it from its own goroutine.
	Clock blockdev.Clock
	// RequestTimeout completes a request that has been outstanding this
	// long with StatusTimeout, so a wedged server cannot strand the
	// caller. The response, if it ever arrives, is dropped. Zero waits
	// forever.
	RequestTimeout time.Duration
	// WriteTimeout bounds each flush of request frames to the socket.
	// Zero means no deadline.
	WriteTimeout time.Duration
	// Tracing stamps every request with a client-generated trace id
	// (FlagTraced + an 8-byte wire extension), so server-side flight
	// recordings can be correlated with this client's requests and
	// each one's node-edge events are recorded. Off by default: a
	// server with a flight recorder then gives only a sample of the
	// connection's requests (one in 64) an id of its own.
	Tracing bool
	// Payload sends a hello at dial time asking for the v2 payload
	// extension. If the server grants it (ServerOptions.Payload),
	// read responses carry the data in v2 frames, handed out in place
	// in the pooled receive chunk they arrived in — consumers must
	// Release each response after its last use of Data (RunStreams
	// does this itself). A response held unreleased pins its whole
	// chunk, up to 1 MiB. If the server
	// declines, the client falls back to data-less v1 silently; check
	// Payload() for the negotiated outcome.
	Payload bool
}

// ErrDisconnected is the terminal error pending requests are failed
// with when the connection dies under them.
var ErrDisconnected = errors.New("netserve: connection lost")

// DialOpts connects to a storage node with explicit failure-handling
// options.
func DialOpts(addr string, opts ClientOptions) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netserve: %w", err)
	}
	c, err := newClient(conn, opts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// newClient runs the client side of the protocol over an established
// connection: the handshake, if asked for, then the read loop. On
// error the caller still owns conn.
func newClient(conn net.Conn, opts ClientOptions) (*Client, error) {
	if opts.Clock == nil {
		opts.Clock = blockdev.NewRealClock()
	}
	c := &Client{
		conn:       conn,
		rec:        metrics.NewRecorder(),
		opts:       opts,
		pool:       bufpool.New(),
		pending:    make(map[uint64]pendingHandle),
		readerDone: make(chan struct{}),
	}
	if opts.Tracing {
		c.traceBase = splitmix64(uint64(time.Now().UnixNano()))
	}
	if opts.Payload {
		// Negotiate before the read loop starts, synchronously on the
		// dialing goroutine: hello out, hello back, nothing else is on
		// the wire yet.
		if opts.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
		}
		if err := WriteHello(conn, Hello{Version: ProtoV2, Feats: FeatPayload}); err != nil {
			return nil, fmt.Errorf("netserve: handshake: %w", err)
		}
		// The server sends nothing after its hello until a request
		// arrives, so reading exactly the hello leaves no bytes behind.
		hello, err := ReadHello(flushReader{c})
		if err != nil {
			return nil, fmt.Errorf("netserve: handshake: %w", err)
		}
		c.payload = hello.Version >= ProtoV2 && hello.Feats&FeatPayload != 0
	}
	go c.readLoop()
	return c, nil
}

// Payload reports whether the server granted the payload extension at
// dial time (always false unless ClientOptions.Payload asked for it).
func (c *Client) Payload() bool { return c.payload }

// DialRetry dials with up to attempts tries, sleeping between failures
// with doubling, jittered, capped backoff. It returns the last dial
// error when every attempt fails. Storage nodes restart; their clients
// should ride it out instead of dying on the first refused connection.
func DialRetry(addr string, opts ClientOptions, attempts int, backoff time.Duration) (*Client, error) {
	if attempts < 1 {
		attempts = 1
	}
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	const maxBackoff = 2 * time.Second
	var lastErr error
	for i := 0; i < attempts; i++ {
		c, err := DialOpts(addr, opts)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if i == attempts-1 {
			break
		}
		d := backoff << uint(i)
		if d > maxBackoff {
			d = maxBackoff
		}
		// Deterministic per-attempt jitter in [d/2, d]: desynchronizes
		// a fleet of restarting clients without pulling in a PRNG. The
		// modulo runs in uint64 — converting the mixer output to a
		// Duration first can flip it negative and undershoot d/2.
		j := splitmix64(uint64(i) + uint64(time.Now().UnixNano()))
		d = d/2 + time.Duration(j%uint64(d/2+1))
		time.Sleep(d)
	}
	return nil, fmt.Errorf("netserve: dial %s failed after %d attempts: %w", addr, attempts, lastErr)
}

// splitmix64 is the standard 64-bit mixer (public domain), used only
// to spread dial-retry jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Recorder returns the client's metrics.
func (c *Client) Recorder() *metrics.Recorder { return c.rec }

// Close shuts the connection down and waits for the reader.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// Go issues one read on behalf of a stream. done (optional) receives
// the response and its measured latency. The frame is on the socket
// when Go returns, unless Go was called from a done callback (or while
// one is running): those frames leave together, in one write, before
// the read loop next waits for the server. Go returns an error only if
// done will not run. In payload mode the response may hold a
// reference to a pooled receive chunk: done owns it and must call
// resp.Release after its last use of Data (a nil done releases
// automatically).
func (c *Client) Go(stream int, disk uint16, off, length int64, flags uint16,
	done func(Response, time.Duration)) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("netserve: client closed")
	}
	if c.readerExited {
		// The reader has already failed and drained the pending map; a
		// handle registered now would never be completed.
		err := c.readerErr
		c.mu.Unlock()
		if err == nil {
			err = ErrDisconnected
		}
		return fmt.Errorf("netserve: %w", err)
	}
	id := c.nextID
	c.nextID++
	var tid uint64
	if c.opts.Tracing {
		// Mix the connection's identity into the id stream so two traced
		// clients against one node do not collide; the mixer output is
		// never zero for these inputs in practice, but guard anyway
		// (zero means "untraced" on the wire).
		tid = splitmix64(c.traceBase + id)
		if tid == 0 {
			tid = 1
		}
	}
	h := pendingHandle{
		stream: stream,
		length: length,
		sent:   c.opts.Clock.Now(),
		done:   done,
	}
	if c.opts.RequestTimeout > 0 {
		h.cancelTimeout = c.opts.Clock.Schedule(c.opts.RequestTimeout, func() {
			c.expire(id)
		})
	}
	c.pending[id] = h
	c.mu.Unlock()

	c.wmu.Lock()
	c.out = appendRequest(c.out, Request{ID: id, Disk: disk, Flags: flags, Offset: off, Length: length, Trace: tid})
	var err error
	if !c.corked {
		err = c.flushLocked()
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		h, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if !ok {
			// The handle was already completed (request timeout or
			// reader drain) — its callback has run, so returning the
			// write error here would double-complete the request.
			return nil
		}
		if h.cancelTimeout != nil {
			h.cancelTimeout()
		}
		return fmt.Errorf("netserve: %w", err)
	}
	return nil
}

// expire completes a request that outlived RequestTimeout with
// StatusTimeout. The server's response, if it ever arrives, finds no
// handle and is dropped.
func (c *Client) expire(id uint64) {
	c.mu.Lock()
	h, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if ok && h.done != nil {
		h.done(Response{ID: id, Status: StatusTimeout}, c.opts.RequestTimeout)
	}
}

// Err returns the reader's terminal error after Close (io.EOF and
// network-closed errors are reported as nil).
func (c *Client) Err() error {
	select {
	case <-c.readerDone:
		return c.readerErr
	default:
		return nil
	}
}

// readLoop decodes responses and completes their handles until the
// connection fails. Its receive chunk is released on the way out,
// before Close returns.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	size := dataLessChunk
	if c.payload {
		size = maxBatchBytes
	}
	rx := newReceiver(flushReader{c}, c.pool, c.payload, size)
	defer rx.close()
	for {
		var resp Response
		if err := rx.next(&resp); err != nil {
			c.failPending(err)
			return
		}
		now := c.opts.Clock.Now()
		c.mu.Lock()
		h, ok := c.pending[resp.ID]
		if ok {
			delete(c.pending, resp.ID)
			if resp.Status == StatusOK {
				c.rec.Record(h.stream, h.length, h.sent, now)
			}
		}
		c.mu.Unlock()
		if !ok {
			// Expired or disconnect-drained before the response landed:
			// nobody will see it, so drop its chunk reference here.
			resp.Release()
			continue
		}
		if h.cancelTimeout != nil {
			h.cancelTimeout()
		}
		if h.done != nil {
			h.done(resp, now-h.sent)
		} else {
			resp.Release()
		}
	}
}

// failPending drains the pending map when the reader exits, completing
// every outstanding handle with StatusDisconnected. Without this,
// callers counting completions (RunStreams' WaitGroup, streamload's
// issue loops) deadlock forever on requests whose responses can no
// longer arrive.
func (c *Client) failPending(err error) {
	now := c.opts.Clock.Now()
	c.mu.Lock()
	if !c.closed {
		c.readerErr = err
	}
	c.readerExited = true
	orphans := c.pending
	c.pending = make(map[uint64]pendingHandle)
	c.mu.Unlock()
	for id, h := range orphans {
		if h.cancelTimeout != nil {
			h.cancelTimeout()
		}
		if h.done != nil {
			h.done(Response{ID: id, Status: StatusDisconnected}, now-h.sent)
		}
	}
}

// RunStreams drives streams of synchronous sequential reads until each
// has completed `requests` reads, then returns. Streams are spaced
// uniformly across the given disk capacity.
func (c *Client) RunStreams(disk uint16, capacity int64, streams, requests int,
	reqSize int64, flags uint16) error {
	return c.RunStreamsFunc(disk, capacity, streams, requests, reqSize, flags, nil)
}

// RunStreamsFunc is RunStreams with a per-response check: when
// non-nil, check runs on every successful response — while its
// payload (if any) is still valid — and a non-nil error stops that
// stream and is reported. RunStreamsFunc releases each response's
// receive chunk reference itself, after the check.
func (c *Client) RunStreamsFunc(disk uint16, capacity int64, streams, requests int,
	reqSize int64, flags uint16, check func(stream int, resp *Response) error) error {
	if streams <= 0 || requests <= 0 || reqSize <= 0 {
		return errors.New("netserve: bad stream parameters")
	}
	spacing := capacity / int64(streams)
	spacing -= spacing % 512
	if spacing < reqSize {
		// With more streams than capacity/reqSize the spacing rounds
		// toward zero and the streams would trample each other's
		// offsets (at zero, every stream reads the same blocks and the
		// "sequential" workload degenerates entirely).
		return fmt.Errorf("netserve: %d streams over capacity %d leaves spacing %d < request size %d",
			streams, capacity, spacing, reqSize)
	}
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		s := s
		base := int64(s) * spacing
		var issue func(i int)
		issue = func(i int) {
			if i >= requests {
				wg.Done()
				return
			}
			err := c.Go(s, disk, base+int64(i)*reqSize, reqSize, flags,
				func(resp Response, _ time.Duration) {
					if resp.Status != StatusOK {
						resp.Release()
						errs <- fmt.Errorf("netserve: stream %d status %d", s, resp.Status)
						wg.Done()
						return
					}
					if check != nil {
						if cerr := check(s, &resp); cerr != nil {
							resp.Release()
							errs <- cerr
							wg.Done()
							return
						}
					}
					resp.Release()
					issue(i + 1)
				})
			if err != nil {
				errs <- err
				wg.Done()
			}
		}
		issue(0)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}
