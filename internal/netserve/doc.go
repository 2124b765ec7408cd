// Package netserve implements the storage-node wire protocol of §5:
// clients emulate many sequential streams over TCP against a storage
// node; read responses carry no payload by default (as in the paper,
// so the network does not bottleneck the I/O measurement).
//
// # Protocol versions
//
// Two wire modes coexist on one listening port (DESIGN.md §11). A v1
// client's first bytes are a request frame and everything proceeds as
// data-less fixed-size headers. A v2-capable client opens with an
// 8-byte hello naming the feature bits it wants; the server answers
// with what it grants — nothing, unless it runs with
// ServerOptions.Payload — and a declined client silently falls back
// to v1 (Client.Payload reports the outcome). On a negotiated
// connection every response uses the v2 header, and responses to
// FlagWantData reads carry the staged bytes plus an offset echo that
// lets clients verify the payload against the device pattern.
//
// # Flushing: a frame leaves before its connection would block
//
// Neither end writes a frame at a time. A server connection's writer
// goroutine blocks for one response, takes whatever else is already
// queued (at most 64 frames and 1 MiB of payload) and sends the lot
// with one vectored write. A client's Go appends its frame to the
// outgoing buffer, which belongs to whoever holds Client.wmu; the read
// loop reads the socket through flushReader, whose every Read — the
// only place the loop can block — first writes that buffer out. While
// the read loop is between two socket reads, decoding responses and
// running done callbacks, a cork flag (also under wmu) is up and Go
// only appends, so the requests a burst of responses provoke share one
// write; with the cork down the buffer is empty and Go flushes its own
// frame before it returns. There is no timer: the cork is raised only
// by the goroutine that is guaranteed to lower it before it sleeps. A
// flush that fails closes the connection, and the read loop fails every
// pending handle with StatusDisconnected. WriteTimeout, on both ends,
// bounds one flush.
//
// # Ownership and payload lifetime
//
// Each server connection runs one reader loop and one writer
// goroutine; the writer owns all socket writes, and completion
// callbacks (which arrive on arbitrary scheduler goroutines) only
// enqueue responses. Payload bytes are handed off from the storage
// node's staging pool, not copied: the completion detaches the pooled
// reference with core.Response.TakeBuf, parks it on the wire Response,
// and the writer sends its batch's headers and payloads in one
// vectored write (net.Buffers), calling Response.Release on each only
// after the write returns. Release is the single disposal point and is
// exactly-once by construction: TakeBuf nils the scheduler's
// reference, Release nils the wire's.
//
// When a connection dies mid-stream, the writer marks itself broken,
// closes the socket, and keeps consuming the response channel —
// releasing every queued response and counting it, like every frame
// of the batch whose write failed, in ServerStats.DroppedResponses —
// until the reader closes the channel. No response is ever abandoned
// to the garbage collector with its pool accounting open. A reader
// that stops draining exerts backpressure instead of growing memory:
// the bounded response channel and the bounded batch cap how many
// staged buffers the wire can pin, and past that completions block
// until the socket moves or dies.
//
// On the client side the read loop reads the socket into a pooled
// receive chunk (one server batch, 1 MiB, on a payload connection;
// 64 KiB otherwise) and decodes frames in place. A payload response's
// Data is a slice of that chunk and the response holds a reference to
// it: a done callback owns its Response and must call Release after
// its last use of Data (RunStreams/RunStreamsFunc release internally,
// after the optional per-response check). A response held unreleased
// pins its whole chunk, up to 1 MiB, not just its own bytes. The read
// loop releases its own chunk when it exits.
package netserve
