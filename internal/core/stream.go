package core

import (
	"time"

	"seqstream/internal/bufpool"
	"seqstream/internal/slo"
)

// pendingReq is a client request waiting for prefetched data.
type pendingReq struct {
	off    int64
	length int64
	start  time.Duration
	trace  uint64 // flight-recorder trace id, 0 = untraced
	done   func(Response)
}

// stream is one detected sequential stream (§4.1): a private request
// queue plus read-ahead state.
type stream struct {
	id   int
	disk int

	// nextClient is the offset the next in-order client request is
	// expected at. Requests that do not match go down the direct path.
	nextClient int64
	// nextFetch is the next disk offset to prefetch.
	nextFetch int64

	// queue holds in-order client requests whose data is not staged
	// yet.
	queue []pendingReq

	// issuedInResidency counts disk requests in the current dispatch
	// residency; at N the stream rotates out.
	issuedInResidency int
	// fetchInFlight marks an outstanding disk request.
	fetchInFlight bool
	// dispatched marks membership in the dispatch set.
	dispatched bool
	// queued marks membership in the candidate queue.
	queued bool

	// buffers are this stream's staged (or in-flight) buffers, in
	// fetch order.
	buffers []*buffer

	lastActive time.Duration
	// totalFetched counts bytes of read-ahead issued for the stream.
	totalFetched int64

	// slo is the stream's SLO ledger entry, nil unless Config.SLOTarget
	// enabled the engine. Admitted in createStream, retired with the
	// stream; scoring through a nil entry is a no-op.
	slo *slo.StreamLedger
}

// buffer is one staged I/O buffer in the buffered set (§4.3).
type buffer struct {
	disk  int
	start int64
	end   int64
	// data holds the device bytes for backends that materialize them.
	data []byte
	// pbuf is the pooled memory the fetch reads into on devices that
	// support blockdev.ReaderInto (data aliases it when ready). It is
	// recycled when the buffer is freed — or, for abandoned fetches,
	// only when the late device completion arrives, because the device
	// may still be writing into it (see shard.onFetchTimeout).
	pbuf *bufpool.Buf
	// inDevice marks a window in which the primary device call is
	// outstanding: set when a fetch is (re-)issued, cleared when its
	// completion arrives. While set, pbuf (when the device reads into
	// pooled memory) must not be recycled — and a winning speculative
	// leg must keep the spec record parked on the buffer so the late
	// primary completion is recognized and recycled instead of
	// replaying a full completion on a buffer that already delivered.
	inDevice bool
	// ready marks fetch completion.
	ready bool
	// consumed counts bytes delivered to clients from this buffer; the
	// buffer is freed when consumed reaches its size.
	consumed int64
	// lastActive drives the GC timeout.
	lastActive time.Duration
	// issuedAt is when the fetch was generated (tracing).
	issuedAt time.Duration
	owner    *stream

	// attempts counts retries of this buffer's fetch after transient
	// device errors.
	attempts int
	// abandoned marks a fetch that hit FetchTimeout: its memory is
	// already reclaimed and its waiters failed, so a late device
	// completion (or queued retry) must be dropped.
	abandoned bool
	// cancelTimeout stops the pending fetch-deadline timer.
	cancelTimeout func()

	// readDisk is the disk the fetch was actually issued to: the
	// stream's primary unless steering routed it to a replica. Device
	// calls, latency observation, and breaker noting use readDisk;
	// dispatch accounting (perDisk, the fair share) stays on the
	// stream's logical disk.
	readDisk int
	// spec is the in-flight (or won) speculative duplicate of this
	// buffer's fetch on a replica, nil when none was armed. See
	// shard.onSpecTimer for the lifecycle.
	spec *specFetch
	// specCancel stops the pending speculation-trigger timer.
	specCancel func()
	// primaryFailed marks a terminal primary-leg error parked while a
	// speculative leg is still in flight; the spec completion decides
	// the buffer's fate (spec.go).
	primaryFailed bool
}

func (b *buffer) size() int64 { return b.end - b.start }

// covers reports whether the buffer spans [off, off+n).
func (b *buffer) covers(off, n int64) bool {
	return off >= b.start && off+n <= b.end
}

// slice returns the data backing [off, off+n), or nil when the backend
// does not materialize bytes.
func (b *buffer) slice(off, n int64) []byte {
	if b.data == nil {
		return nil
	}
	lo := off - b.start
	if lo < 0 || lo+n > int64(len(b.data)) {
		return nil
	}
	return b.data[lo : lo+n]
}

// DispatchPolicy picks the next candidate stream admitted to the
// dispatch set. Implementations see the candidate queue in FIFO order
// and return the index to admit.
type DispatchPolicy interface {
	// Next returns the index in candidates to admit. candidates is
	// never empty, and is the shard's reused scratch: Next must not
	// retain it (or modify it) past the call. lastOffset is the most
	// recent fetch offset per disk, for locality-aware policies.
	Next(candidates []*stream, lastOffset map[int]int64) int
}

// RoundRobin admits candidates in FIFO order — the paper's default
// policy (§4.2).
type RoundRobin struct{}

var _ DispatchPolicy = RoundRobin{}

// Next implements DispatchPolicy.
func (RoundRobin) Next(candidates []*stream, _ map[int]int64) int { return 0 }

// NearestOffset admits the candidate whose next fetch is closest to
// the disk head's recent position — the locality-aware alternative the
// paper sketches but does not adopt (§4.2). Used by the ablation
// benches.
type NearestOffset struct{}

var _ DispatchPolicy = NearestOffset{}

// Next implements DispatchPolicy.
func (NearestOffset) Next(candidates []*stream, lastOffset map[int]int64) int {
	best := 0
	bestDist := int64(-1)
	for i, s := range candidates {
		last, ok := lastOffset[s.disk]
		if !ok {
			continue
		}
		dist := s.nextFetch - last
		if dist < 0 {
			dist = -dist
		}
		if bestDist < 0 || dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}
