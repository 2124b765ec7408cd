package netserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"seqstream/internal/bufpool"
)

// Protocol constants.
const (
	// Magic guards both frame directions.
	Magic = 0x53455153 // "SQES"
	// HelloMagic guards the optional handshake frame a v2 client leads
	// with. It is distinct from Magic so a server can tell a hello
	// from a v1 request by peeking the first four bytes.
	HelloMagic = 0x32455153 // "SQE2"
	// MaxLength bounds a single read (16 MB).
	MaxLength = 16 << 20
)

// Protocol versions carried in the hello frame.
const (
	// ProtoV1 is the original framing: data-less v1 response frames
	// (payload only when the client begged with FlagWantData, and even
	// then with no negotiated guarantees).
	ProtoV1 uint16 = 1
	// ProtoV2 adds the negotiated feature set and the extended
	// response framing (flags word + offset echo on payload frames).
	ProtoV2 uint16 = 2
)

// Negotiable feature bits (hello frames).
const (
	// FeatPayload asks for payload-bearing read responses: v2 frames
	// whose payload is written straight from the staged buffer via
	// vectored I/O, with an offset echo the client can verify framing
	// against.
	FeatPayload uint16 = 1 << 0
)

// Response flags (v2 frames only).
const (
	// RespPayload marks a v2 response frame carrying payload framing:
	// an 8-byte offset echo after the fixed header, then the data.
	RespPayload uint32 = 1 << 0
)

// Request flags.
const (
	// FlagWantData asks the server to include the read payload in the
	// response.
	FlagWantData uint16 = 1 << iota
	// FlagWrite marks the request as a write of Length bytes (the
	// ingest path). Payloads are not carried on the wire — mirroring
	// the paper's data-less responses — so the node writes
	// deterministic fill; the flag exercises the full scheduling path.
	FlagWrite
	// FlagTraced marks a request frame that carries an 8-byte trace id
	// after the fixed header. Servers that predate the flag reject the
	// frame (bad magic on the extension bytes), and old clients never
	// set it, so the extension is backward compatible in the direction
	// that matters: new server, any client.
	FlagTraced
)

// Response status codes.
const (
	StatusOK uint32 = iota
	StatusBadRequest
	StatusIOError
	StatusShutdown
	// StatusTimeout is synthesized by the client when a request
	// outlives its per-request deadline; it never crosses the wire.
	StatusTimeout
	// StatusDisconnected is synthesized by the client for requests
	// still pending when the connection dies; it never crosses the
	// wire.
	StatusDisconnected
)

// Fixed wire sizes. Request frames are identical in both versions;
// v2 response frames add a 4-byte flags word to the v1 header, plus
// an 8-byte offset echo when RespPayload is set.
const (
	reqHeaderSize    = 4 + 8 + 2 + 2 + 8 + 4
	respHeaderSize   = 4 + 8 + 4 + 4
	respV2HeaderSize = 4 + 8 + 4 + 4 + 4
	helloSize        = 4 + 2 + 2
)

// Hello is the handshake frame, sent by a v2 client immediately after
// connecting and answered by the server before any responses. Version
// is the highest protocol version the sender speaks; Feats is the
// feature set requested (client) or granted (server). A v1 client
// sends no hello at all — the server detects the absence by peeking
// the first frame's magic — so old clients keep working unchanged.
type Hello struct {
	Version uint16
	Feats   uint16
}

// WriteHello encodes a handshake frame.
func WriteHello(w io.Writer, h Hello) error {
	var buf [helloSize]byte
	binary.LittleEndian.PutUint32(buf[0:], HelloMagic)
	binary.LittleEndian.PutUint16(buf[4:], h.Version)
	binary.LittleEndian.PutUint16(buf[6:], h.Feats)
	_, err := w.Write(buf[:])
	return err
}

// ReadHello decodes a handshake frame.
func ReadHello(r io.Reader) (Hello, error) {
	var buf [helloSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return Hello{}, err
	}
	if binary.LittleEndian.Uint32(buf[0:]) != HelloMagic {
		return Hello{}, ErrBadMagic
	}
	return Hello{
		Version: binary.LittleEndian.Uint16(buf[4:]),
		Feats:   binary.LittleEndian.Uint16(buf[6:]),
	}, nil
}

// Request is one client read.
type Request struct {
	ID     uint64
	Disk   uint16
	Flags  uint16
	Offset int64
	Length int64
	// Trace is the request's trace id, carried on the wire only when
	// FlagTraced is set. Zero means untraced: a server with a flight
	// recorder allocates an id for a sample of such requests only.
	Trace uint64
}

// Response answers a request.
type Response struct {
	ID     uint64
	Status uint32
	// Flags carries the v2 response flags (RespPayload). Always zero
	// on v1 frames.
	Flags uint32
	// Offset echoes the request offset on v2 payload frames, so a
	// client can verify framing independently of its own bookkeeping.
	Offset int64
	Data   []byte // nil unless FlagWantData was set and the read succeeded

	// buf is the pooled memory backing Data: on the server the staged
	// buffer detached from the core response (core.Response.TakeBuf),
	// on a payload-mode client the receive chunk the frame arrived in,
	// which other responses may share. Release drops the single
	// reference this response owns.
	buf *bufpool.Buf
	// release recycles non-pooled backing memory (nil otherwise);
	// retained so custom backends that hand out closures keep working.
	release func()
}

// Release returns the memory backing Data to its pool, if any. The
// server's writer calls it after the vectored write has drained the
// payload onto the wire; payload-mode clients call it after their
// last use of Data. Until then a client response pins its whole
// receive chunk, up to 1 MiB, not just its own bytes. It is safe to
// call more than once and on responses with no pooled payload.
func (r *Response) Release() {
	r.buf.Release()
	r.buf = nil
	if r.release != nil {
		r.release()
		r.release = nil
	}
	r.Data = nil
}

// Errors.
var (
	ErrBadMagic = errors.New("netserve: bad magic")
	ErrTooLarge = errors.New("netserve: frame too large")
)

// appendRequest appends req's frame to dst: the fixed header, plus the
// 8-byte trace id when FlagTraced is set (the flag is derived from the
// Trace field, so callers just set Trace). It is the one request
// encoder; the client appends straight into its outgoing buffer.
func appendRequest(dst []byte, req Request) []byte {
	if req.Trace != 0 {
		req.Flags |= FlagTraced
	}
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = binary.LittleEndian.AppendUint64(dst, req.ID)
	dst = binary.LittleEndian.AppendUint16(dst, req.Disk)
	dst = binary.LittleEndian.AppendUint16(dst, req.Flags)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(req.Offset))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.Length))
	if req.Flags&FlagTraced != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, req.Trace)
	}
	return dst
}

// WriteRequest encodes one request frame and writes it to w.
func WriteRequest(w io.Writer, req Request) error {
	var buf [reqHeaderSize + 8]byte
	_, err := w.Write(appendRequest(buf[:0], req))
	return err
}

// decoder decodes frames from one byte stream. Headers are read into
// a scratch array that lives on the decoder — a stack array would
// escape through the io.Reader call and cost one allocation per
// frame — so a connection's steady state decodes without allocating.
// Not safe for concurrent use: each connection's read loop owns one.
type decoder struct {
	r   io.Reader
	hdr [reqHeaderSize + 8]byte // the largest header: a traced request
}

// fill reads the next n header bytes into the scratch, after the
// `have` bytes of the frame already there. A stream that ends inside
// a frame is io.ErrUnexpectedEOF; io.EOF means it ended cleanly
// between frames.
func (d *decoder) fill(have, n int) error {
	_, err := io.ReadFull(d.r, d.hdr[have:have+n])
	if err == io.EOF && have > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// readRequest decodes a request frame, reading the trace-id extension
// when FlagTraced is set.
func (d *decoder) readRequest() (Request, error) {
	if err := d.fill(0, reqHeaderSize); err != nil {
		return Request{}, err
	}
	b := d.hdr[:]
	if binary.LittleEndian.Uint32(b[0:]) != Magic {
		return Request{}, ErrBadMagic
	}
	req := Request{
		ID:     binary.LittleEndian.Uint64(b[4:]),
		Disk:   binary.LittleEndian.Uint16(b[12:]),
		Flags:  binary.LittleEndian.Uint16(b[14:]),
		Offset: int64(binary.LittleEndian.Uint64(b[16:])),
		Length: int64(binary.LittleEndian.Uint32(b[24:])),
	}
	if req.Length > MaxLength {
		return Request{}, ErrTooLarge
	}
	if req.Flags&FlagTraced != 0 {
		if err := d.fill(reqHeaderSize, 8); err != nil {
			return Request{}, fmt.Errorf("netserve: trace extension: %w", err)
		}
		req.Trace = binary.LittleEndian.Uint64(b[reqHeaderSize:])
	}
	return req, nil
}

// respFixedSize is the length of a response frame's fixed header: the
// v1 header, or on a negotiated connection the v2 one with its flags
// word.
func respFixedSize(v2 bool) int {
	if v2 {
		return respV2HeaderSize
	}
	return respHeaderSize
}

// parseResponse decodes the fixed response header in b, which holds
// exactly respFixedSize(v2) bytes, and returns the payload length it
// announces. It is the one response-header parser: the decoder runs it
// on its scratch array, a client's receiver on the bytes where they
// landed. The caller reads the 8-byte offset echo that follows when
// resp.Flags has RespPayload.
func parseResponse(b []byte, v2 bool) (resp Response, n int, err error) {
	if binary.LittleEndian.Uint32(b[0:]) != Magic {
		return Response{}, 0, ErrBadMagic
	}
	resp.ID = binary.LittleEndian.Uint64(b[4:])
	resp.Status = binary.LittleEndian.Uint32(b[12:])
	if v2 {
		resp.Flags = binary.LittleEndian.Uint32(b[16:])
	}
	length := binary.LittleEndian.Uint32(b[len(b)-4:])
	if length > MaxLength {
		return Response{}, 0, ErrTooLarge
	}
	return resp, int(length), nil
}

// readResponse decodes a response frame: v2 framing (flags word, and
// the offset echo on RespPayload frames) on a negotiated connection,
// v1 otherwise. When a pool is supplied the payload lands in pooled
// receive memory that the consumer owns via Response.Release; nil
// falls back to plain allocation.
func (d *decoder) readResponse(v2 bool, pool *bufpool.Pool) (Response, error) {
	size := respFixedSize(v2)
	if err := d.fill(0, size); err != nil {
		return Response{}, err
	}
	resp, n, err := parseResponse(d.hdr[:size], v2)
	if err != nil {
		return Response{}, err
	}
	if resp.Flags&RespPayload != 0 {
		if err := d.fill(size, 8); err != nil {
			return Response{}, fmt.Errorf("netserve: offset echo: %w", err)
		}
		resp.Offset = int64(binary.LittleEndian.Uint64(d.hdr[size:]))
	}
	if n > 0 {
		if pool != nil {
			resp.buf = pool.Get(int64(n))
			resp.Data = resp.buf.Data
		} else {
			resp.Data = make([]byte, n)
		}
		if _, err := io.ReadFull(d.r, resp.Data); err != nil {
			resp.Release()
			return Response{}, fmt.Errorf("netserve: payload: %w", midFrame(err))
		}
	}
	return resp, nil
}

// ReadRequest decodes one request frame from r.
func ReadRequest(r io.Reader) (Request, error) {
	d := decoder{r: r}
	return d.readRequest()
}

// ReadResponse decodes one v1 response frame from r.
func ReadResponse(r io.Reader) (Response, error) {
	d := decoder{r: r}
	return d.readResponse(false, nil)
}

// The bounds on one vectored write. A batch pins its frames' staged
// buffers until the write returns, so together with the response
// queue these cap the staging memory a connection whose peer has
// stopped reading can hold.
const (
	maxBatchFrames = 64
	maxBatchBytes  = 1 << 20
)

// ResponseWriter serializes response frames for one connection. All
// the headers of a batch (and, on v2 payload frames, the offset
// echoes) are encoded into one reused arena and reach the socket
// together with the payloads in a single vectored write (net.Buffers
// writev); payload bytes go out straight from the staged buffers and
// are never copied. The arena and gather list live on the writer so
// the steady state allocates nothing. Not safe for concurrent use:
// each connection's writer goroutine owns exactly one.
type ResponseWriter struct {
	w       io.Writer
	payload bool     // v2 framing negotiated on this connection
	hdrs    []byte   // every header of the batch being written
	iov     [][]byte // gather list: header runs and payloads, in wire order
	run     int      // where the last gather entry starts in hdrs; -1 if it is a payload
	bufs    net.Buffers
}

// NewResponseWriter builds a writer for one connection. payload
// selects v2 framing (negotiated connections); false emits
// byte-identical v1 frames.
func NewResponseWriter(w io.Writer, payload bool) *ResponseWriter {
	return &ResponseWriter{w: w, payload: payload}
}

// WriteResponse encodes and writes one response frame: a batch of
// one. The caller still owns resp's buffer and must Release it
// afterwards — by then the write has drained (or failed), so the
// pooled bytes are free to recycle either way.
func (fw *ResponseWriter) WriteResponse(resp *Response) error {
	fw.begin(1)
	if err := fw.add(resp); err != nil {
		return err
	}
	return fw.flush()
}

// writeBatch encodes every frame of batch and issues one vectored
// write for all of them. The caller owns the frames' buffers, as with
// WriteResponse.
func (fw *ResponseWriter) writeBatch(batch []Response) error {
	fw.begin(len(batch))
	for i := range batch {
		if err := fw.add(&batch[i]); err != nil {
			return err
		}
	}
	return fw.flush()
}

// begin starts a batch of up to n frames. The arena is sized up front
// so that the gather list's slices into it are never moved by a later
// frame's append.
func (fw *ResponseWriter) begin(n int) {
	if need := n * (respV2HeaderSize + 8); cap(fw.hdrs) < need {
		fw.hdrs = make([]byte, 0, need)
	}
	fw.hdrs = fw.hdrs[:0]
	fw.iov = fw.iov[:0]
	fw.run = -1
}

// add encodes one frame onto the batch. Consecutive headers with no
// payload between them are one run in the arena and so one gather
// entry: a data-less batch is a single buffer however many frames it
// holds.
func (fw *ResponseWriter) add(resp *Response) error {
	if int64(len(resp.Data)) > MaxLength {
		return ErrTooLarge
	}
	if fw.run < 0 {
		fw.run = len(fw.hdrs)
		fw.iov = append(fw.iov, nil)
	}
	h := binary.LittleEndian.AppendUint32(fw.hdrs, Magic)
	h = binary.LittleEndian.AppendUint64(h, resp.ID)
	h = binary.LittleEndian.AppendUint32(h, resp.Status)
	if fw.payload {
		h = binary.LittleEndian.AppendUint32(h, resp.Flags)
	}
	h = binary.LittleEndian.AppendUint32(h, uint32(len(resp.Data)))
	if fw.payload && resp.Flags&RespPayload != 0 {
		h = binary.LittleEndian.AppendUint64(h, uint64(resp.Offset))
	}
	fw.hdrs = h
	fw.iov[len(fw.iov)-1] = h[fw.run:]
	if len(resp.Data) > 0 {
		fw.iov = append(fw.iov, resp.Data)
		fw.run = -1
	}
	return nil
}

// flush writes the batch. WriteTo consumes a net.Buffers as it drains,
// so it works on a copy of the slice header and the gather list's
// backing array is reused by the next batch.
func (fw *ResponseWriter) flush() error {
	fw.bufs = net.Buffers(fw.iov)
	_, err := fw.bufs.WriteTo(fw.w)
	return err
}

// WriteResponse encodes one v1 response frame and writes it to w.
func WriteResponse(w io.Writer, resp Response) error {
	return NewResponseWriter(w, false).WriteResponse(&resp)
}
