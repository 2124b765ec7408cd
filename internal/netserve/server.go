package netserve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"seqstream/internal/core"
	"seqstream/internal/flight"
	"seqstream/internal/obs"
)

// Server accepts stream clients over TCP and routes their reads
// through a core.Server (Figure 9's storage node). It is the §5
// testbed's server half.
type Server struct {
	node   *core.Server
	ingest atomic.Pointer[core.Ingest]
	ln     net.Listener
	opts   ServerOptions

	// mu guards the connection set and the registry the counter
	// families were last registered on; the request path never takes
	// it.
	mu     sync.Mutex
	conns  map[net.Conn]struct{} //lint:guardedby mu
	closed bool                  //lint:guardedby mu
	obsReg *obs.Registry         //lint:guardedby mu
	wg     sync.WaitGroup

	stats  serverCounters
	obs    atomic.Pointer[Obs]
	flight atomic.Pointer[flight.Recorder]
}

// serverCounters is ServerStats as the connections count it: one
// atomic per field, so no two connections share a lock on the request
// path. They are the only count: the /metrics counter families read
// them at scrape time.
type serverCounters struct {
	conns     atomic.Int64
	requests  atomic.Int64
	errors    atomic.Int64
	bytesRead atomic.Int64
	dropped   atomic.Int64
	// written counts responses whose vectored write returned without
	// error. Every completion ends up here or in dropped.
	written atomic.Int64
}

// SetFlight attaches a flight recorder; nil detaches. The server
// becomes the trace-context ingress: a request carries a trace id when
// the client sent one (FlagTraced) or when it is one of its
// connection's sampled untraced requests (the 1st, then every
// traceSampleEvery-th), which get a fresh id. Only requests with an id
// record OpIngress/OpRespond and core's per-request edge events, so an
// untraced wire request costs the recorder what an untraced
// in-process request does.
func (s *Server) SetFlight(rec *flight.Recorder) { s.flight.Store(rec) }

// traceSampleEvery is the interval at which a connection's untraced
// requests get a server-allocated trace id while a recorder is
// attached: the 1st, 65th, 129th, … untraced request.
const traceSampleEvery = 64

// ServerStats counts server-side activity.
type ServerStats struct {
	Conns    int64
	Requests int64
	// Errors counts requests rejected before reaching the node and
	// connections ended by a protocol error (bad magic, oversized or
	// truncated frame).
	Errors    int64
	BytesRead int64
	// DroppedResponses counts completions discarded because their
	// connection had died: every frame of the write that failed, and
	// everything queued behind it.
	DroppedResponses int64
}

// ServerOptions tune a server's failure handling. The zero value — no
// deadlines — matches the original trusting behavior.
type ServerOptions struct {
	// IdleTimeout closes a connection that sends no request for this
	// long, so silently dead peers cannot pin handler goroutines (and
	// their pending completions) forever. Zero waits forever.
	IdleTimeout time.Duration
	// WriteTimeout bounds each flush of the response writer: one
	// vectored write of every frame queued at that moment. A peer that
	// stops reading exhausts the response channel's slack and would
	// otherwise wedge the writer permanently. Zero means no deadline.
	WriteTimeout time.Duration
	// Payload enables the v2 payload extension: a client whose hello
	// requests FeatPayload gets read responses carrying the staged
	// bytes in v2 frames, written straight from the refcounted staging
	// buffers via vectored I/O. Off (the default), hellos are still
	// answered — granting nothing — so payload-capable clients fall
	// back to data-less v1 cleanly.
	Payload bool
}

// NewServerOpts wraps a storage node and starts listening on addr
// (host:port; port 0 picks a free port) with explicit failure-handling
// options.
func NewServerOpts(node *core.Server, addr string, opts ServerOptions) (*Server, error) {
	if node == nil {
		return nil, errors.New("netserve: nil node")
	}
	if opts.IdleTimeout < 0 || opts.WriteTimeout < 0 {
		return nil, errors.New("netserve: negative timeout")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netserve: %w", err)
	}
	s := &Server{node: node, ln: ln, opts: opts, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// EnableWrites routes FlagWrite requests through the given ingest
// coalescer. Without it, write requests get StatusBadRequest.
func (s *Server) EnableWrites(ing *core.Ingest) { s.ingest.Store(ing) }

// Stats returns a snapshot of the counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Conns:            s.stats.conns.Load(),
		Requests:         s.stats.requests.Load(),
		Errors:           s.stats.errors.Load(),
		BytesRead:        s.stats.bytesRead.Load(),
		DroppedResponses: s.stats.dropped.Load(),
	}
}

// Close stops accepting, closes every connection, and waits for the
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.stats.conns.Add(1)
		// One instrument snapshot per connection: the open-connections
		// gauge increments and decrements on the same pointer even if
		// SetObs changes mid-connection.
		o := s.obs.Load()
		if o != nil {
			o.openConns.Add(1)
		}
		s.wg.Add(1)
		go s.handle(conn, o)
	}
}

// serverConn is one accepted connection: the reader loop (handle)
// decodes requests and submits them, completion callbacks enqueue
// responses from arbitrary goroutines, and one writer goroutine
// (writeLoop) owns every socket write.
type serverConn struct {
	s       *Server
	conn    net.Conn
	o       *Obs // instrument snapshot taken at accept time; may be nil
	payload bool // v2 framing negotiated

	// responses holds 64 frames, which with the 64 a write batch can
	// hold is the slack the wire had when it wrote a frame at a time
	// from a 128-entry queue: past it completions block until the
	// socket moves or dies.
	responses  chan Response
	writerDone chan struct{}
	// pending counts submitted requests whose completion has not yet
	// been enqueued; the reader closes responses only after it drains.
	pending sync.WaitGroup
	// untraced counts the untraced requests decoded while a recorder
	// was attached, to pick the sampled ones. Owned by the reader.
	untraced uint64

	freeMu sync.Mutex
	free   []*call //lint:guardedby freeMu
}

// handle runs one connection to its end. o is the instrument snapshot
// taken at accept time (may be nil).
func (s *Server) handle(conn net.Conn, o *Obs) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		if o != nil {
			o.openConns.Add(-1)
		}
	}()
	cn := &serverConn{s: s, conn: conn, o: o,
		responses: make(chan Response, 64), writerDone: make(chan struct{})}

	// Handshake probe: a v2 client leads with a hello frame, a v1
	// client's first bytes are a request frame. Peek the magic without
	// consuming, so the v1 path sees its frame intact. The reply is
	// written inline, before the writer goroutine exists, so nothing
	// races the socket.
	br := bufio.NewReaderSize(conn, 32<<10)
	if s.opts.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
	}
	if first, err := br.Peek(4); err == nil && binary.LittleEndian.Uint32(first) == HelloMagic {
		hello, err := ReadHello(br)
		if err != nil {
			cn.protocolError(err)
			return
		}
		reply := Hello{Version: ProtoV1}
		if s.opts.Payload && hello.Version >= ProtoV2 {
			reply.Version = ProtoV2
			reply.Feats = hello.Feats & FeatPayload
		}
		if err := WriteHello(conn, reply); err != nil {
			return
		}
		cn.payload = reply.Feats&FeatPayload != 0
	}

	go cn.writeLoop()
	dec := decoder{r: br}
	for {
		if s.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		req, err := dec.readRequest()
		if err != nil {
			cn.protocolError(err)
			break
		}
		cn.serve(req)
	}
	// The reader owns closing the response channel, after every
	// submitted request has completed.
	cn.pending.Wait()
	close(cn.responses)
	<-cn.writerDone
}

// protocolError counts a read-side failure if it is the peer breaking
// the protocol — bad magic, an oversized length, a frame cut short —
// and not a connection simply ending (EOF between frames, a closed or
// reset socket, an idle timeout).
func (cn *serverConn) protocolError(err error) {
	if errors.Is(err, ErrBadMagic) || errors.Is(err, ErrTooLarge) || errors.Is(err, io.ErrUnexpectedEOF) {
		cn.s.stats.errors.Add(1)
	}
}

// writeLoop serializes responses onto the socket. It blocks for one
// frame, then takes whatever else is already queued — up to
// maxBatchFrames frames or maxBatchBytes of payload — and sends the
// lot with one vectored write: a frame leaves no later than the moment
// the queue would otherwise make the writer block, and a busy
// connection pays one syscall per batch instead of one per frame. Each
// staged buffer is released only after its batch's write has returned.
// Once a write fails the writer keeps consuming — releasing and
// counting every remaining response as dropped — so each pooled buffer
// is released exactly once no matter where in the pipeline the
// disconnect caught it.
func (cn *serverConn) writeLoop() {
	defer close(cn.writerDone)
	fw := NewResponseWriter(cn.conn, cn.payload)
	batch := make([]Response, 0, maxBatchFrames)
	broken := false
	for resp := range cn.responses {
		batch = append(batch[:0], resp)
		size := len(resp.Data)
	fill:
		for len(batch) < maxBatchFrames && size < maxBatchBytes {
			select {
			case more, ok := <-cn.responses:
				if !ok {
					break fill // closed and drained: the range ends next
				}
				batch = append(batch, more)
				size += len(more.Data)
			default:
				break fill
			}
		}
		if !broken {
			if cn.s.opts.WriteTimeout > 0 {
				cn.conn.SetWriteDeadline(time.Now().Add(cn.s.opts.WriteTimeout))
			}
			if err := fw.writeBatch(batch); err != nil {
				// Unblock the reader too: the connection is dead in one
				// direction, so stop consuming requests that can never
				// be answered. How much of the batch the peer received
				// is unknowable, so all of it counts as dropped.
				cn.conn.Close()
				broken = true
			}
		}
		if broken {
			cn.s.stats.dropped.Add(int64(len(batch)))
		} else {
			cn.s.stats.written.Add(int64(len(batch)))
		}
		// The payloads are on the wire (or lost with the connection);
		// either way their pooled memory can be recycled.
		for i := range batch {
			batch[i].Release()
		}
	}
}

// call is one request in flight between the reader loop and its
// completion callback. Records are recycled through their connection's
// free list and their completion funcs bound once, when a record is
// first made, so a request costs no closure: the state a closure would
// capture lives in the record.
type call struct {
	cn  *serverConn // fixed for the record's life
	req Request
	// rec is the flight recorder snapshot for a request with a trace
	// id (nil otherwise); tid and ingressAt are its trace context.
	rec       *flight.Recorder
	tid       uint64
	ingressAt time.Duration

	done func(core.Response) // c.complete
	ack  func(error)         // c.acked
}

// newCall takes a record off the connection's free list, or makes
// one. The list never holds more than the connection's peak of
// requests in flight.
func (cn *serverConn) newCall() *call {
	cn.freeMu.Lock()
	if n := len(cn.free); n > 0 {
		c := cn.free[n-1]
		cn.free = cn.free[:n-1]
		cn.freeMu.Unlock()
		return c
	}
	cn.freeMu.Unlock()
	c := &call{cn: cn}
	c.done, c.ack = c.complete, c.acked
	return c
}

// serve routes one decoded request to the storage node (or the ingest
// coalescer); the response is enqueued by the completion.
func (cn *serverConn) serve(req Request) {
	s := cn.s
	s.stats.requests.Add(1)
	c := cn.newCall()
	c.req = req

	// Trace ingress: keep the client's id, or give a sampled untraced
	// request a fresh one, and stamp the entry of a request with an id
	// on the disk's ring so the node-edge events sit beside the shard's
	// scheduling events.
	if rec := s.flight.Load(); rec != nil {
		c.tid = req.Trace
		if c.tid == 0 {
			if cn.untraced%traceSampleEvery == 0 {
				c.tid = rec.NextTrace()
			}
			cn.untraced++
		}
		if c.tid != 0 {
			c.rec = rec
			c.ingressAt = rec.Now()
			rec.RingFor(int(req.Disk)).Record(flight.Event{Trace: c.tid, Op: flight.OpIngress,
				Disk: req.Disk, Stream: flight.NoStream, Offset: req.Offset, Length: req.Length, T: c.ingressAt})
		}
	}

	var err error
	cn.pending.Add(1)
	if req.Flags&FlagWrite != 0 {
		ing := s.ingest.Load()
		if ing == nil {
			c.finish(Response{ID: req.ID, Status: StatusBadRequest}, flight.ErrIO)
			return
		}
		err = ing.Write(int(req.Disk), req.Offset, nil, req.Length, c.ack)
	} else {
		err = s.node.Submit(core.Request{Disk: int(req.Disk), Offset: req.Offset, Length: req.Length,
			Trace: c.tid, Done: c.done})
	}
	if err != nil {
		// Rejected before reaching the node: the completion will not run.
		s.stats.errors.Add(1)
		c.finish(Response{ID: req.ID, Status: StatusBadRequest}, flight.ErrIO)
	}
}

// finish ends a request: it stamps the respond event of a request with
// a trace id, recycles the record and hands the response to the
// writer. It runs exactly once per call, on whichever goroutine
// completed the request. The send always lands: the reader closes
// responses only after every pending completion has sent, and the
// writer drains the channel until that close, so a full channel only
// applies backpressure.
func (c *call) finish(resp Response, code uint8) {
	if c.rec != nil {
		now := c.rec.Now()
		c.rec.RingFor(int(c.req.Disk)).Record(flight.Event{Trace: c.tid, Op: flight.OpRespond, Err: code,
			Disk: c.req.Disk, Stream: flight.NoStream, Offset: c.req.Offset, Length: c.req.Length,
			T: now, Dur: now - c.ingressAt})
	}
	cn := c.cn
	c.rec, c.tid = nil, 0
	cn.freeMu.Lock()
	cn.free = append(cn.free, c)
	cn.freeMu.Unlock()
	cn.responses <- resp
	cn.pending.Done()
}

// acked is the ingest coalescer's completion for a write request.
func (c *call) acked(err error) {
	if err != nil {
		c.finish(Response{ID: c.req.ID, Status: StatusIOError}, flight.ErrIO)
		return
	}
	c.cn.s.stats.bytesRead.Add(c.req.Length)
	c.finish(Response{ID: c.req.ID, Status: StatusOK}, flight.ErrNone)
}

// complete is the storage node's completion for a read request.
func (c *call) complete(r core.Response) {
	resp := Response{ID: c.req.ID, Status: StatusOK}
	if r.Err != nil {
		code := flight.ErrIO
		resp.Status = StatusIOError
		switch {
		case errors.Is(r.Err, core.ErrFetchTimeout):
			resp.Status = StatusTimeout
			code = flight.ErrTimeout
		case errors.Is(r.Err, core.ErrDiskDegraded):
			code = flight.ErrDegraded
		}
		c.finish(resp, code)
		return
	}
	c.cn.s.stats.bytesRead.Add(c.req.Length)
	if o := c.cn.o; o != nil {
		// r.End is the node's clock reading for this request, so the
		// window needs no clock read of its own.
		lat := r.End - r.Start
		o.requestLatency.Observe(lat)
		o.window.ObserveAt(r.End, lat)
		o.scoreSLO(c.req.Length, lat)
	}
	if c.req.Flags&FlagWantData != 0 && r.Data != nil {
		// The frame takes over the storage node's staged buffer (no
		// copy); the writer releases it once the vectored write drains.
		resp.Data = r.Data
		resp.buf = r.TakeBuf()
		if c.cn.payload {
			resp.Flags = RespPayload
			resp.Offset = c.req.Offset
		}
	} else {
		r.Release()
	}
	c.finish(resp, flight.ErrNone)
}
