package netserve

import (
	"encoding/binary"
	"fmt"
	"io"

	"seqstream/internal/bufpool"
)

// dataLessChunk is the receive chunk of a connection without the
// payload extension. Its frames are bare headers, so 64 KiB holds
// thousands of them, and a larger chunk only costs resident memory.
const dataLessChunk = 64 << 10

// receiver is a client's read side. It reads the socket into a pooled
// chunk — on a payload connection one server batch (maxBatchBytes)
// big, so a whole batch arrives in a few reads — and decodes every
// frame where it landed. A payload frame's Data is a capped slice of
// the chunk it arrived in, and its Response holds a reference to that
// chunk: the socket read is the only time the bytes move.
//
// The receiver holds a reference of its own to the current chunk.
// When a frame would run past the chunk's end, the undecoded bytes
// slide to the chunk's start if no response still shares it, as bufio
// does; otherwise they move to a fresh chunk and the receiver drops
// its reference, leaving the old chunk to the responses that use it.
// Not safe for concurrent use: the client's read loop owns it.
type receiver struct {
	src   io.Reader
	pool  *bufpool.Pool
	v2    bool // payload negotiated: v2 headers, payloads handed out in place
	size  int  // the chunk size; a larger payload gets a chunk of its own size
	chunk *bufpool.Buf
	r, w  int // chunk.Data[r:w] has been read but not yet decoded
}

// newReceiver reads src into chunks of size bytes taken from pool.
// payload selects v2 framing and in-place payloads.
func newReceiver(src io.Reader, pool *bufpool.Pool, payload bool, size int) *receiver {
	return &receiver{src: src, pool: pool, v2: payload, size: size, chunk: pool.Get(int64(size))}
}

// close drops the receiver's reference to its chunk. Responses already
// decoded keep theirs.
func (rx *receiver) close() {
	rx.chunk.Release()
	rx.chunk = nil
}

// next decodes the next response frame into resp. On a payload
// connection the frame's Data stays in its chunk and resp takes one
// reference to it, which resp.Release drops. Data on any other
// connection is copied out, so such a response needs no Release.
func (rx *receiver) next(resp *Response) error {
	size := respFixedSize(rx.v2)
	if err := rx.fill(size); err != nil {
		if rx.w > rx.r {
			err = midFrame(err)
		}
		return err
	}
	hdr, n, err := parseResponse(rx.chunk.Data[rx.r:rx.r+size], rx.v2)
	if err != nil {
		return err
	}
	rx.r += size
	if hdr.Flags&RespPayload != 0 {
		if err := rx.fill(8); err != nil {
			return fmt.Errorf("netserve: offset echo: %w", midFrame(err))
		}
		hdr.Offset = int64(binary.LittleEndian.Uint64(rx.chunk.Data[rx.r:]))
		rx.r += 8
	}
	if n > 0 {
		if err := rx.fill(n); err != nil {
			return fmt.Errorf("netserve: payload: %w", midFrame(err))
		}
		data := rx.chunk.Data[rx.r : rx.r+n : rx.r+n]
		rx.r += n
		if rx.v2 {
			rx.chunk.Retain()
			hdr.buf = rx.chunk
			hdr.Data = data
		} else {
			hdr.Data = make([]byte, n)
			copy(hdr.Data, data)
		}
	}
	*resp = hdr
	return nil
}

// fill reads until at least n undecoded bytes are buffered, making
// room first when nothing is buffered or the frame would run past the
// chunk's end.
func (rx *receiver) fill(n int) error {
	for rx.w-rx.r < n {
		if rx.r == rx.w || len(rx.chunk.Data)-rx.r < n {
			rx.compact(n)
		}
		m, err := rx.src.Read(rx.chunk.Data[rx.w:])
		rx.w += m
		if err != nil && rx.w-rx.r < n {
			return err
		}
	}
	return nil
}

// compact moves the undecoded bytes to the start of a chunk with room
// for an n-byte frame: the current chunk when nobody else references
// it, a fresh one otherwise. With nothing to move and room left in
// the current chunk's tail, the next read simply goes there.
func (rx *receiver) compact(n int) {
	want := max(rx.size, n)
	old := rx.chunk
	switch {
	case len(old.Data) == want && old.Refs() == 1:
		copy(old.Data, old.Data[rx.r:rx.w])
	case rx.r == rx.w && len(old.Data)-rx.r >= n:
		return
	default:
		rx.chunk = rx.pool.Get(int64(want))
		copy(rx.chunk.Data, old.Data[rx.r:rx.w])
		old.Release()
	}
	rx.w -= rx.r
	rx.r = 0
}

// midFrame reports a stream that ended inside a frame as
// io.ErrUnexpectedEOF.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
