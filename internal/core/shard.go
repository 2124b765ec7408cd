package core

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/bufpool"
	"seqstream/internal/flight"
	"seqstream/internal/invariants"
	"seqstream/internal/obs"
	"seqstream/internal/slo"
)

// shard is one scheduler shard. Disks are assigned to shards by
// disk % len(shards) (one disk per shard by default), and every
// structure a disk's traffic touches — classifier regions, streams,
// candidate queue, staged buffers, circuit breakers, GC cursor —
// belongs to exactly one shard and is guarded by that shard's mutex.
//
// Ownership and locking rules:
//
//   - All fields below mu are guarded by mu. No code path ever holds
//     two shard locks at once; cross-shard work (Server.Snapshot,
//     Server.evictGlobal) locks shards one at a time or in index
//     order.
//   - The global bounds D and M live in Server atomics
//     (Server.dispatched, Server.memUsed); a shard reserves against
//     them with CAS loops while holding only its own lock.
//   - Client callbacks and device calls never run under mu: they are
//     queued in pendingIO/pendingDone under the lock, and the section
//     that queued them ends in unlockAndFlush, which takes them before
//     it releases the lock and runs them after.
//   - When a shard cannot make progress because a global budget is
//     exhausted, it flags itself (wantPump) and returns; whichever
//     shard releases the resource schedules a repump pass that pumps
//     the flagged shards off-lock.
type shard struct {
	srv *Server
	idx int

	// fr is this shard's flight-recorder ring (nil when recording is
	// off). The binding is fixed at construction so the hot path pays
	// one nil check, never a map or modulo.
	fr *flight.Ring

	mu         sync.Mutex
	cls        *classifier       //lint:guardedby mu
	byExpected offIndex[*stream] //lint:guardedby mu — stream lookup by next expected client offset
	streams    map[int]*stream   //lint:guardedby mu
	candidates []*stream         //lint:guardedby mu
	dispatched int               //lint:guardedby mu — dispatch slots held by this shard's streams
	perDisk    map[int]int       //lint:guardedby mu — dispatched streams per disk
	lastOffset map[int]int64     //lint:guardedby mu — last fetch end per disk (for policies)
	breakers   map[int]*breaker  //lint:guardedby mu
	memUsed    int64             //lint:guardedby mu — staged bytes owned by this shard
	bufCount   int               //lint:guardedby mu — live buffers owned by this shard
	stats      Stats             //lint:guardedby mu
	gcCancel   func()            //lint:guardedby mu
	gcArmed    bool              //lint:guardedby mu
	closed     bool              //lint:guardedby mu
	steerTick  int               //lint:guardedby mu — steering pick counter (every 16th probes the primary)
	// pickIdx/pickSet are pump's reused scratch: the admittable
	// candidates' queue indexes and the slice handed to the policy.
	pickIdx []int     //lint:guardedby mu
	pickSet []*stream //lint:guardedby mu
	// idleFloor is a lower bound on every live buffer's lastActive:
	// issueFetch lowers it, touches and frees only raise the true
	// minimum, and an eviction scan recomputes it exactly. While
	// now-EvictIdle is below it no buffer can be idle enough to evict,
	// so findEvictVictim answers without a scan.
	idleFloor  time.Duration //lint:guardedby mu
	evictScans int64         //lint:guardedby mu — full victim scans run (tests)

	// pendingIO collects device calls generated under the lock; they
	// run after the lock is released (unlockAndFlush), because real
	// devices may block in ReadAt and their completions need the lock.
	pendingIO []ioCall //lint:guardedby mu
	// pendingDone collects staged-data completions generated under the
	// lock; the flush delivers the whole batch after the device calls,
	// so the issue path keeps its priority (§4.2) and delivery costs no
	// per-response timer.
	pendingDone []doneEntry //lint:guardedby mu
	// spareIO/spareDone take back the drained slices, so a flush that
	// finds its spares in place allocates nothing.
	spareIO   []ioCall    //lint:guardedby mu
	spareDone []doneEntry //lint:guardedby mu
	// freeDirect recycles direct-read records (directCall).
	freeDirect *directCall //lint:guardedby mu

	// compMu guards the device-completion queue. It is a leaf lock:
	// enqueueCompletion takes it from device-callback goroutines with
	// no other lock held, and the reaper takes it only between shard-
	// lock holds, so it never nests inside (or outside) mu.
	compMu sync.Mutex
	// compQ holds device completions awaiting the reaper, in arrival
	// order.
	compQ []completion //lint:guardedby compMu
	// compSpare recycles the drained batch slice so steady-state
	// reaping allocates nothing.
	compSpare []completion //lint:guardedby compMu
	// reaping marks that some goroutine is draining compQ; others just
	// enqueue and leave, which is what amortizes lock handoffs when
	// many device goroutines complete at once.
	reaping atomic.Bool

	// wantPump flags that this shard gave up on admission because a
	// global budget (D or M) was exhausted; Server.repumpPass clears
	// it. Atomic so releases on other shards can read it locklessly.
	wantPump atomic.Bool
	// flushDepth bounds synchronous completion recursion; deep chains
	// are flattened through the clock.
	flushDepth atomic.Int32
	flushFn    func()
}

// doneEntry is one batched client completion.
type doneEntry struct {
	done   func(Response)
	resp   Response
	length int64
}

// ioCall is one device call queued under the shard lock and issued by
// the flush after the lock is released. A fetch, or its retry, is
// (st, b, pb); a direct read is dc; a speculative leg carries fn.
//
// pb is the buffer's pooled memory captured when the call is queued,
// under the lock — NOT read from b.pbuf when the call runs: a
// speculative leg can win between the call being queued and the flush
// issuing it (the trigger delay floors at SpecMinDelay, which a
// descheduled flush can overshoot), and the win swaps b.pbuf to the
// winner's bytes while stashing these in the spec record. The late
// primary write must land in its own (stashed) memory, never in the
// winner's live — or worse, already recycled — buffer.
type ioCall struct {
	fn func()
	dc *directCall
	st *stream
	b  *buffer
	pb *bufpool.Buf
}

// run issues the call: a fetch reads into its captured pooled memory
// when it has any, through the allocating path otherwise. No lock
// held.
func (c *ioCall) run(sh *shard) {
	if c.dc != nil {
		c.dc.issue()
		return
	}
	if c.fn != nil {
		c.fn()
		return
	}
	srv, st, b := sh.srv, c.st, c.b
	var err error
	if c.pb != nil {
		err = srv.rinto.ReadInto(b.readDisk, b.start, b.size(), c.pb.Data, func(data []byte, derr error) {
			sh.onFetchDone(st, b, data, derr)
		})
	} else {
		err = srv.dev.ReadAt(b.readDisk, b.start, b.size(), func(data []byte, derr error) {
			sh.onFetchDone(st, b, data, derr)
		})
	}
	if err != nil {
		// Validated ranges make this unreachable in practice; treat it
		// as a failed fetch so waiters are not wedged.
		sh.onFetchDone(st, b, nil, err)
	}
}

// maxFlushDepth bounds nested flushes (completion → Submit → flush →
// …) before the remainder is deferred through the clock.
const maxFlushDepth = 8

func newShard(srv *Server, idx int) *shard {
	sh := &shard{
		srv:        srv,
		idx:        idx,
		fr:         srv.cfg.Flight.Ring(idx),
		cls:        newClassifier(srv.cfg),
		byExpected: newOffIndex[*stream](srv.dev.Disks()),
		streams:    make(map[int]*stream),
		perDisk:    make(map[int]int),
		lastOffset: make(map[int]int64),
		breakers:   make(map[int]*breaker),
		idleFloor:  noIdleFloor,
	}
	sh.flushFn = sh.flushWork
	return sh
}

// markBlocked flags the shard as starved on a global budget so the
// next release repumps it. Callable from any goroutine.
func (sh *shard) markBlocked() {
	if sh.wantPump.CompareAndSwap(false, true) {
		sh.srv.blocked.Add(1)
	}
}

// clearBlocked consumes the blocked flag, reporting whether it was
// set.
func (sh *shard) clearBlocked() bool {
	if sh.wantPump.CompareAndSwap(true, false) {
		sh.srv.blocked.Add(-1)
		return true
	}
	return false
}

// armGC ensures the periodic collector is scheduled while there is
// collectible state, and leaves no timer behind when the shard is
// idle (so simulations drain and idle real servers hold no timers).
// Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) armGC() {
	if sh.gcArmed || sh.closed {
		return
	}
	if len(sh.streams) == 0 && sh.cls.regionCount() == 0 && sh.bufCount == 0 {
		return
	}
	sh.gcArmed = true
	sh.gcCancel = sh.srv.clock.Schedule(sh.srv.cfg.GCPeriod, sh.gcTick)
}

// unlockAndFlush ends a critical section that may have queued work:
// it takes the queued device calls and completions while the caller
// still holds the lock, releases it, and runs them — device calls
// first, then the completions. The common staged hit queues exactly
// its own completion and no device call; that entry moves to the
// stack and is delivered with no further lock hold. Completions may
// submit follow-up requests synchronously; past maxFlushDepth the
// work is deferred through the clock so hit chains cannot grow the
// stack. Caller holds sh.mu; it is released on return.
//
//lint:releases mu
func (sh *shard) unlockAndFlush() {
	if len(sh.pendingIO) == 0 && len(sh.pendingDone) == 0 {
		sh.mu.Unlock()
		return
	}
	if sh.flushDepth.Add(1) > maxFlushDepth {
		sh.flushDepth.Add(-1)
		sh.mu.Unlock()
		sh.srv.clock.Schedule(0, sh.flushFn)
		return
	}
	if len(sh.pendingIO) == 0 && len(sh.pendingDone) == 1 {
		own := [1]doneEntry{sh.pendingDone[0]}
		sh.pendingDone[0] = doneEntry{}
		sh.pendingDone = sh.pendingDone[:0]
		sh.mu.Unlock()
		sh.deliver(own[:])
	} else {
		sh.drain()
	}
	sh.flushDepth.Add(-1)
}

// flushWork is the clock-deferred flush: it drains whatever is queued
// when it runs.
func (sh *shard) flushWork() {
	sh.mu.Lock()
	sh.drain()
}

// drain takes the queued work, leaving the spares (or nil) in its
// place, and runs it off-lock; each later hold hands the drained
// slices back as spares and takes the next batch, until nothing is
// queued. A slice whose spare slot a concurrent flush already refilled
// is dropped to the garbage collector, so the next enqueue allocates.
// Caller holds sh.mu; it is released on return.
//
//lint:releases mu
func (sh *shard) drain() {
	for {
		calls, batch := sh.pendingIO, sh.pendingDone
		sh.pendingIO, sh.pendingDone = sh.spareIO, sh.spareDone
		sh.spareIO, sh.spareDone = nil, nil
		sh.mu.Unlock()
		for i := range calls {
			calls[i].run(sh)
		}
		sh.deliver(batch)
		clear(calls)
		clear(batch)
		sh.mu.Lock()
		if sh.spareIO == nil {
			sh.spareIO = calls[:0]
		}
		if sh.spareDone == nil {
			sh.spareDone = batch[:0]
		}
		if len(sh.pendingIO) == 0 && len(sh.pendingDone) == 0 {
			sh.mu.Unlock()
			return
		}
	}
}

// deliver completes one batch of responses, stamped with End at
// enqueue (the serving shard's clock reading). When the device models
// host CPU, each staged-data delivery is charged individually (the
// sim's accounting is per request) and End moves past the charge;
// direct and failed reads are not charged. Otherwise the batch
// completes synchronously with no per-response timer.
func (sh *shard) deliver(batch []doneEntry) {
	srv := sh.srv
	if srv.cpu != nil {
		for i := range batch {
			e := batch[i] // copy: the backing array is recycled
			if !e.resp.FromBuffer {
				e.done(e.resp)
				continue
			}
			srv.cpu.ChargeRequest(e.length, func() {
				e.resp.End = srv.clock.Now()
				e.done(e.resp)
			})
		}
		return
	}
	for i := range batch {
		e := &batch[i]
		e.done(e.resp)
	}
}

// enqueueDone queues one completion for the flush that ends the
// current critical section.
// Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) enqueueDone(done func(Response), resp Response, length int64) {
	if done == nil {
		// Nobody is waiting: drop the delivery (the pooled ref was only
		// attached for a live consumer).
		resp.Release()
		return
	}
	sh.pendingDone = append(sh.pendingDone, doneEntry{done: done, resp: resp, length: length})
}

// submit is Server.Submit routed to the disk's shard; see the flow
// description there.
func (sh *shard) submit(req Request) error {
	srv := sh.srv
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return errors.New("core: server closed")
	}
	now := srv.clock.Now()
	sh.stats.Requests++
	// Edge events (submit/fastfail/direct) are not part of the stream
	// lifecycle chain; they exist to follow an individual traced request
	// end to end, so untraced bulk traffic skips them. This keeps the
	// buffer-hit path at exactly one Record (deliver) per request, which
	// is what makes the always-on recorder affordable.
	if sh.fr != nil && req.Trace != 0 {
		sh.fr.Record(flight.Event{Trace: req.Trace, Op: flight.OpSubmit, Disk: uint16(req.Disk),
			Stream: flight.NoStream, Offset: req.Offset, Length: req.Length, T: now})
	}

	// Degraded path: an open circuit fails the disk's requests fast
	// instead of queuing them behind a sick device, so client threads
	// (and the staging memory behind them) never pile up on it.
	if !sh.breakerAllows(req.Disk, now) {
		sh.stats.BreakerFastFails++
		if sh.fr != nil && req.Trace != 0 {
			sh.fr.Record(flight.Event{Trace: req.Trace, Op: flight.OpFastFail, Err: flight.ErrDegraded,
				Disk: uint16(req.Disk), Stream: flight.NoStream, Offset: req.Offset, Length: req.Length, T: now})
		}
		sh.enqueueDone(req.Done, Response{Start: now, End: now, Direct: true, Err: ErrDiskDegraded}, req.Length)
		sh.unlockAndFlush()
		return nil
	}

	// Stream path: the request continues a classified stream.
	if st := sh.byExpected.get(req.Disk, req.Offset); st != nil {
		sh.acceptStreamRequest(st, req, now)
		sh.armGC()
		sh.unlockAndFlush()
		return nil
	}

	// Near-sequential path: a stream expecting a nearby offset absorbs
	// the request (skips count as consumed; overlaps re-read staged
	// data).
	if srv.cfg.NearSeqWindow > 0 {
		if st := sh.lookupNearSeq(req.Disk, req.Offset); st != nil {
			sh.acceptNearSeq(st, req, now)
			sh.armGC()
			sh.unlockAndFlush()
			return nil
		}
	}

	// Classifier path: record the access; on detection, create the
	// stream and admit it to the candidate queue. The triggering
	// request itself is serviced directly (§4.1: requests are issued
	// directly to the disk until a stream is detected).
	if sh.cls.observe(req.Disk, req.Offset, req.Length, now) {
		sh.createStream(req, now)
	}
	sh.directRead(req, now)
	sh.armGC()
	sh.unlockAndFlush()
	return nil
}

// acceptStreamRequest handles an in-order request of a known stream:
// serve from a ready buffer, or queue it for an in-flight/future
// fetch. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) acceptStreamRequest(st *stream, req Request, now time.Duration) {
	// Advance the expected offset.
	next := req.Offset + req.Length
	sh.byExpected.move(st.disk, st.nextClient, next, st)
	st.nextClient = next
	st.lastActive = now

	covered := false
	for _, b := range st.buffers {
		if !b.covers(req.Offset, req.Length) {
			continue
		}
		if b.ready {
			sh.stats.BufferHits++
			sh.serveFromBuffer(st, b, pendingReq{off: req.Offset, length: req.Length, start: now, trace: req.Trace, done: req.Done}, now)
			return
		}
		covered = true // an in-flight fetch will deliver it
		break
	}
	// If the range was fetched before but its buffer has since been
	// dropped (GC), rewind the fetch pointer so it is read again.
	if !covered && req.Offset < st.nextFetch {
		st.nextFetch = req.Offset
	}
	st.queue = append(st.queue, pendingReq{off: req.Offset, length: req.Length, start: now, trace: req.Trace, done: req.Done})

	// A stream with waiting clients and nothing staged or queued for
	// dispatch re-enters the candidate queue (it may have been rotated
	// out with all buffers consumed).
	if !st.dispatched && !st.queued && sh.eligible(st) {
		sh.enqueueCandidate(st)
		sh.pump()
	}
}

// lookupNearSeq returns the stream on disk whose expected offset is
// nearest to off within the configured window, or nil. Caller holds
// sh.mu.
//
//lint:holds mu
func (sh *shard) lookupNearSeq(disk int, off int64) *stream {
	var best *stream
	var bestDist int64
	for _, st := range sh.streams {
		if st.disk != disk {
			continue
		}
		dist := off - st.nextClient
		if dist < 0 {
			dist = -dist
		}
		if dist > sh.srv.cfg.NearSeqWindow {
			continue
		}
		if best == nil || dist < bestDist {
			best, bestDist = st, dist
		}
	}
	return best
}

// acceptNearSeq folds a near-sequential request into a stream: a
// backward overlap is served from staged data (or directly) without
// moving the stream; a forward gap marks the skipped range consumed
// and advances the stream. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) acceptNearSeq(st *stream, req Request, now time.Duration) {
	sh.stats.NearSeqAccepted++
	if req.Offset+req.Length <= st.nextClient {
		// Entirely behind the stream: a re-read. Serve staged data if
		// it is still resident; otherwise go directly to the disk.
		st.lastActive = now
		for _, b := range st.buffers {
			if b.ready && b.covers(req.Offset, req.Length) {
				sh.stats.BufferHits++
				sh.serveFromBuffer(st, b,
					pendingReq{off: req.Offset, length: req.Length, start: now, trace: req.Trace, done: req.Done}, now)
				return
			}
		}
		sh.directRead(req, now)
		return
	}
	// Forward gap (or partial overlap): credit the skipped range to
	// the buffers that staged it, so they still free when the stream
	// moves past them.
	if gap := req.Offset - st.nextClient; gap > 0 {
		sh.stats.BytesSkipped += gap
		for _, b := range append([]*buffer(nil), st.buffers...) {
			if b.start >= req.Offset || b.end <= st.nextClient {
				continue
			}
			covered := req.Offset
			if b.end < covered {
				covered = b.end
			}
			if mark := covered - b.start; mark > b.consumed {
				b.consumed = mark
			}
			if b.ready && b.consumed >= b.size() {
				sh.freeBuffer(st, b, false)
			}
		}
	}
	sh.acceptStreamRequest(st, req, now)
}

// eligible reports whether a stream may generate more disk requests:
// it has disk left and its staged-ahead window (the per-stream working
// set, §4.3) is below N·R beyond the client's position.
func (sh *shard) eligible(st *stream) bool {
	if st.nextFetch >= sh.srv.dev.Capacity(st.disk) {
		return false
	}
	if ahead := st.nextFetch - st.nextClient; ahead >= int64(sh.srv.cfg.RequestsPerStream)*sh.srv.cfg.ReadAhead {
		return false
	}
	// An open circuit keeps the stream out of the dispatch set; it
	// re-enters on the next client request after the disk recovers (or
	// is collected once it idles out). Tested last: it reads the clock,
	// and a staged hit should not.
	return !sh.diskBlocked(st.disk, sh.srv.clock.Now())
}

// serveFromBuffer completes one request from a ready buffer and frees
// the buffer once fully consumed. Consumption is a watermark relative
// to the buffer start, so duplicate or overlapping reads (near-
// sequential mode) never over-count. The completion itself is batched
// (enqueueDone) and carries a reference on the buffer's pooled memory
// when there is one. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) serveFromBuffer(st *stream, b *buffer, p pendingReq, now time.Duration) {
	firstHit := b.consumed == 0
	if mark := p.off + p.length - b.start; mark > b.consumed {
		b.consumed = mark
	}
	b.lastActive = now
	sh.stats.BytesDelivered += p.length
	// Deliver events, in the flight ring and the span log alike, are
	// recorded at buffer granularity — the first request served from
	// each staged buffer — rather than per request: a stream delivering
	// thousands of buffer hits would otherwise flood the bounded logs
	// with identical events and evict the scheduling history they exist
	// to keep. The first hit also carries the interesting latency (it
	// includes any wait for the fetch). Traced requests always record
	// so an individual request can be followed end to end.
	record := p.trace != 0 || firstHit
	if o := sh.srv.cfg.Obs; o != nil {
		o.requestLatency.Observe(now - p.start)
		if record {
			o.span(now, st.id, st.disk, obs.StageDeliver, p.off, p.length)
		}
	}
	if w := sh.srv.win; w != nil {
		w.observeRequest(now, now-p.start)
	}
	sh.scoreDelivery(st.slo, st.disk, int32(st.id), p.trace, p.off, p.length, now-p.start, true, now)
	if sh.fr != nil && record {
		sh.fr.Record(flight.Event{Trace: p.trace, Op: flight.OpDeliver, Disk: uint16(st.disk),
			Stream: int32(st.id), Offset: p.off, Length: p.length, T: now, Dur: now - p.start})
	}
	if p.done != nil {
		resp := Response{
			Start:      p.start,
			End:        now,
			Data:       b.slice(p.off, p.length),
			FromBuffer: true,
		}
		if resp.Data != nil && b.pbuf != nil {
			b.pbuf.Retain()
			resp.pbuf = b.pbuf
		}
		sh.enqueueDone(p.done, resp, p.length)
	}
	if b.consumed >= b.size() {
		sh.freeBuffer(st, b, false)
		sh.maybeRetire(st)
		sh.pump()
	}
	// Consumption may have reopened the stream's working-set window.
	if !st.dispatched && !st.queued && sh.eligible(st) {
		sh.enqueueCandidate(st)
		sh.pump()
	}
}

// scoreDelivery scores one successful delivery against the SLO engine
// and records a flight event when it violated its deadline. A no-op
// when Config.SLOTarget is off; lock-free and allocation-free
// otherwise (the buffer-hit path runs through it). Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) scoreDelivery(entry *slo.StreamLedger, disk int, stream int32, tr uint64, off, length int64, lat time.Duration, fromBuffer bool, now time.Duration) {
	l := sh.srv.sloLedger
	if l == nil {
		return
	}
	v, late := l.Score(entry, disk, length, lat, fromBuffer)
	if v == slo.OnTime {
		return
	}
	// Violations are rare by construction (the objective is three
	// nines), so recording each one cannot crowd the flight ring the
	// way per-hit deliver events would.
	if sh.fr != nil {
		op := flight.OpSLOLate
		if v == slo.Missed {
			op = flight.OpSLOMiss
		}
		sh.fr.Record(flight.Event{Trace: tr, Op: op, Disk: uint16(disk),
			Stream: stream, Offset: off, Length: length, T: now, Dur: late})
	}
}

// scoreMiss books a failed delivery as an SLO miss (an errored request
// can never meet its objective) and records the flight event. A no-op
// when Config.SLOTarget is off. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) scoreMiss(entry *slo.StreamLedger, disk int, stream int32, tr uint64, off, length int64, lat time.Duration, now time.Duration) {
	l := sh.srv.sloLedger
	if l == nil {
		return
	}
	late := l.ScoreError(entry, disk, length, lat)
	if sh.fr != nil {
		sh.fr.Record(flight.Event{Trace: tr, Op: flight.OpSLOMiss, Err: flight.ErrIO, Disk: uint16(disk),
			Stream: stream, Offset: off, Length: length, T: now, Dur: late})
	}
}

// directRead services a request through the non-sequential path,
// reading into pooled memory when the device supports it. The device
// call itself is deferred to the flush. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) directRead(req Request, now time.Duration) {
	sh.stats.DirectReads++
	dc := sh.freeDirect
	if dc == nil {
		dc = &directCall{sh: sh}
		dc.onDone = dc.deviceDone
	} else {
		sh.freeDirect = dc.next
		dc.next = nil
	}
	dc.req, dc.start = req, now
	sh.pendingIO = append(sh.pendingIO, ioCall{dc: dc})
}

// directCall is one direct read from its queueing to its booking: the
// request, its start and the pooled buffer it reads into. The device
// callback is bound once, when the record is made, so a recycled
// record issues its read without allocating. Records are taken from
// and returned to the shard's free list under sh.mu; in between, the
// read in flight owns its record.
type directCall struct {
	sh     *shard
	req    Request
	start  time.Duration
	pb     *bufpool.Buf
	onDone func(data []byte, err error)
	next   *directCall // free-list link
}

// issue runs the device call. No lock held. A device that completes
// inline books and recycles the record before the call returns, so
// nothing here reads the record after it.
func (dc *directCall) issue() {
	srv, req, start := dc.sh.srv, dc.req, dc.start
	var pb *bufpool.Buf
	var err error
	if srv.rinto != nil {
		pb = srv.pool.Get(req.Length)
		dc.pb = pb
		err = srv.rinto.ReadInto(req.Disk, req.Offset, req.Length, pb.Data, dc.onDone)
	} else {
		err = srv.dev.ReadAt(req.Disk, req.Offset, req.Length, dc.onDone)
	}
	if err != nil {
		// Validated at Submit; only a racing capacity change could land
		// here. Fail the request rather than wedging the client. The
		// record is left to the garbage collector: returning it would
		// take the lock on a path that never runs.
		pb.Release()
		if req.Done != nil {
			req.Done(Response{Start: start, End: srv.clock.Now(), Direct: true, Err: err})
		}
	}
}

// deviceDone routes the device completion through the shard's
// completion reaper, which books it (in a batch, when other
// completions are queued behind it) under the shard lock.
func (dc *directCall) deviceDone(data []byte, err error) {
	dc.sh.enqueueCompletion(completion{dc: dc, data: data, err: err})
}

// onDirectDoneLocked books one direct-path delivery, returns its
// record to the free list, and queues the response for the flush that
// ends the reaper's hold. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) onDirectDoneLocked(dc *directCall, data []byte, derr error) {
	req, start, pb := dc.req, dc.start, dc.pb
	*dc = directCall{sh: sh, onDone: dc.onDone, next: sh.freeDirect}
	sh.freeDirect = dc
	srv := sh.srv
	sh.stats.BytesDelivered += req.Length
	end := srv.clock.Now()
	if derr != nil {
		sh.noteDiskFailure(req.Disk, end)
	} else {
		sh.noteDiskSuccess(req.Disk)
	}
	if o := srv.cfg.Obs; o != nil {
		o.requestLatency.Observe(end - start)
	}
	if w := srv.win; w != nil {
		w.observeRequest(end, end-start)
	}
	if derr != nil {
		sh.scoreMiss(nil, req.Disk, flight.NoStream, req.Trace, req.Offset, req.Length, end-start, end)
	} else {
		sh.scoreDelivery(nil, req.Disk, flight.NoStream, req.Trace, req.Offset, req.Length, end-start, false, end)
	}
	if sh.fr != nil && req.Trace != 0 {
		code := flight.ErrNone
		if derr != nil {
			code = flight.ErrIO
		}
		sh.fr.Record(flight.Event{Trace: req.Trace, Op: flight.OpDirect, Err: code, Disk: uint16(req.Disk),
			Stream: flight.NoStream, Offset: req.Offset, Length: req.Length, T: end, Dur: end - start})
	}
	resp := Response{Start: start, End: end, Data: data, Direct: true, Err: derr}
	if derr != nil || data == nil {
		pb.Release()
	} else {
		resp.pbuf = pb
	}
	sh.enqueueDone(req.Done, resp, req.Length)
}

// createStream registers a new sequential stream whose next expected
// request follows req. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) createStream(req Request, now time.Duration) {
	srv := sh.srv
	next := req.Offset + req.Length
	if next >= srv.dev.Capacity(req.Disk) {
		return // detected at the very end of the disk: nothing to do
	}
	if sh.byExpected.get(req.Disk, next) != nil {
		return // an existing stream already expects this offset
	}
	st := &stream{
		id:         int(srv.nextID.Add(1) - 1),
		disk:       req.Disk,
		nextClient: next,
		nextFetch:  next,
		lastActive: now,
	}
	st.slo = srv.sloLedger.Admit(int32(st.id), st.disk, now)
	sh.streams[st.id] = st
	sh.byExpected.put(st.disk, next, st)
	srv.liveStreams.Add(1)
	sh.stats.StreamsDetected++
	srv.cfg.Obs.span(now, st.id, st.disk, obs.StageClassify, req.Offset, req.Length)
	if sh.fr != nil {
		sh.fr.Record(flight.Event{Trace: req.Trace, Op: flight.OpClassify, Disk: uint16(st.disk),
			Stream: int32(st.id), Offset: req.Offset, Length: req.Length, T: now})
	}
	sh.enqueueCandidate(st)
	sh.pump()
}

// enqueueCandidate appends st to the candidate queue and marks it
// queued. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) enqueueCandidate(st *stream) {
	st.queued = true
	sh.candidates = append(sh.candidates, st)
	sh.srv.liveCands.Add(1)
	if sh.srv.cfg.Obs.Spans() != nil || sh.fr != nil {
		now := sh.srv.clock.Now()
		sh.srv.cfg.Obs.span(now, st.id, st.disk, obs.StageEnqueue, st.nextFetch, 0)
		if sh.fr != nil {
			sh.fr.Record(flight.Event{Op: flight.OpEnqueue, Disk: uint16(st.disk),
				Stream: int32(st.id), Offset: st.nextFetch, T: now})
		}
	}
}

// pump admits candidates into the dispatch set while the global D and
// M budgets allow (§4.2). Fairness is enforced against this shard's
// disks with the global fair share ceil(D / healthy disks), so no
// disk can hold more than its share of the dispatch set no matter how
// the disks are distributed over shards. When a global budget is
// exhausted the shard flags itself for a repump instead of spinning.
// Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) pump() {
	srv := sh.srv
	if invariants.Enabled {
		defer sh.checkInvariants()
	}
	for len(sh.candidates) > 0 {
		if !srv.memWouldFit(srv.cfg.ReadAhead) {
			// Under memory pressure, reclaim the least-recently-used
			// idle staged buffer before giving up: candidates must not
			// starve behind prefetched data nobody is consuming. Only
			// this shard's buffers are visible here; when none qualify
			// the repump pass falls back to a cross-shard eviction.
			if !sh.evictIdleBuffer() {
				sh.markBlocked()
				return
			}
			continue
		}
		// Streams are detected in bursts (a disk's cache turns the
		// last detection reads into back-to-back hits), so plain FIFO
		// admission can hand every slot to one disk's streams and idle
		// the rest of the array. The dispatch set is therefore divided
		// fairly: each disk holds at most ceil(D/#disks) slots, and
		// among admittable candidates those on the least-loaded disk
		// win; the policy picks within that set (FIFO for the paper's
		// round-robin). Disks with an open circuit are excluded on both
		// sides: their candidates cannot be admitted, and they do not
		// count toward the fair share, so the healthy disks keep the
		// full dispatch set between them.
		now := srv.clock.Now()
		ndisks := srv.dev.Disks() - int(srv.degraded.Load())
		if ndisks < 1 {
			ndisks = 1
		}
		maxPerDisk := (srv.cfg.DispatchSize + ndisks - 1) / ndisks
		// Soft deprioritization (the straggler-aware analog of the hard
		// diskBlocked exclusion): candidates on a disk whose windowed
		// fetch EWMA exceeds SteerFactor times the fastest seeded
		// candidate disk yield to healthy candidates first. Unlike an
		// open circuit this never starves the slow disk — when every
		// admissible candidate is slow the filter drops away.
		baseline := sh.steerBaseline()
		skipSlow := baseline > 0
		minLoad := -1
		for {
			for _, c := range sh.candidates {
				if sh.diskBlocked(c.disk, now) {
					continue
				}
				if skipSlow && sh.diskSlow(c.disk, baseline) {
					continue
				}
				load := sh.perDisk[c.disk]
				if load >= maxPerDisk {
					continue
				}
				if minLoad < 0 || load < minLoad {
					minLoad = load
				}
			}
			if minLoad >= 0 || !skipSlow {
				break
			}
			skipSlow = false
		}
		if minLoad < 0 {
			return // every candidate's disk is at its fair share (or blocked)
		}
		if !srv.slotAcquire() {
			// The dispatch set is full globally; a release will repump.
			sh.markBlocked()
			return
		}
		eligibleIdx, filtered := sh.pickIdx[:0], sh.pickSet[:0]
		for i, c := range sh.candidates {
			if sh.perDisk[c.disk] == minLoad && !sh.diskBlocked(c.disk, now) &&
				!(skipSlow && sh.diskSlow(c.disk, baseline)) {
				eligibleIdx = append(eligibleIdx, i)
				filtered = append(filtered, c)
			}
		}
		pick := srv.cfg.Policy.Next(filtered, sh.lastOffset)
		if pick < 0 || pick >= len(filtered) {
			pick = 0
		}
		idx := eligibleIdx[pick]
		clear(filtered) // the scratch must not pin retired streams
		sh.pickIdx, sh.pickSet = eligibleIdx, filtered
		st := sh.candidates[idx]
		sh.candidates = append(sh.candidates[:idx], sh.candidates[idx+1:]...)
		srv.liveCands.Add(-1)
		st.queued = false
		if !sh.eligible(st) {
			// Working-set full or disk exhausted: the stream re-enters
			// the queue when consumption advances (acceptStreamRequest)
			// or retires.
			srv.slotRelease()
			sh.maybeRetire(st)
			continue
		}
		st.dispatched = true
		st.issuedInResidency = 0
		sh.dispatched++
		sh.perDisk[st.disk]++
		srv.cfg.Obs.span(now, st.id, st.disk, obs.StageDispatch, st.nextFetch, 0)
		if sh.fr != nil {
			sh.fr.Record(flight.Event{Op: flight.OpDispatch, Disk: uint16(st.disk),
				Stream: int32(st.id), Offset: st.nextFetch, T: now})
		}
		sh.issueFetch(st)
	}
}

// checkInvariants asserts the scheduler's state invariants when the
// `invariants` build tag is on (no-op otherwise): the §4.2 dispatch
// bound D, the §4.3 memory bound M (the runtime face of M ≥ D·R·N),
// and the consistency of the shard-local accounting the global bounds
// rest on. It is called from the dispatch path (pump), the completion
// path (onFetchDone), and the GC tick. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) checkInvariants() {
	if !invariants.Enabled {
		return
	}
	srv := sh.srv
	gmem := srv.memUsed.Load()
	invariants.Check(gmem >= 0, "staged memory went negative: %d", gmem)
	invariants.Check(gmem <= srv.cfg.Memory,
		"staged bytes %d exceed the memory bound M=%d (D=%d R=%d N=%d)",
		gmem, srv.cfg.Memory, srv.cfg.DispatchSize, srv.cfg.ReadAhead, srv.cfg.RequestsPerStream)
	gdisp := srv.dispatched.Load()
	invariants.Check(gdisp >= 0 && gdisp <= int64(srv.cfg.DispatchSize),
		"dispatch set holds %d streams, bound D=%d", gdisp, srv.cfg.DispatchSize)
	invariants.Check(sh.memUsed >= 0, "shard %d staged memory went negative: %d", sh.idx, sh.memUsed)
	invariants.Check(sh.bufCount >= 0, "shard %d live buffer count went negative: %d", sh.idx, sh.bufCount)

	perDisk := 0
	for _, n := range sh.perDisk {
		perDisk += n
	}
	invariants.Check(perDisk == sh.dispatched,
		"shard %d per-disk dispatch counts sum to %d, shard holds %d", sh.idx, perDisk, sh.dispatched)

	var staged int64
	nbuf := 0
	ndispatched := 0
	for _, st := range sh.streams {
		for _, b := range st.buffers {
			staged += b.size()
			nbuf++
			invariants.Check(b.lastActive >= sh.idleFloor,
				"shard %d buffer of stream %d active at %v, below the idle floor %v", sh.idx, st.id, b.lastActive, sh.idleFloor)
		}
		if st.dispatched {
			ndispatched++
		}
		invariants.Check(!(st.dispatched && st.queued),
			"stream %d is both dispatched and queued as a candidate", st.id)
		invariants.Check(st.issuedInResidency <= srv.cfg.RequestsPerStream,
			"stream %d issued %d fetches in one residency, bound N=%d",
			st.id, st.issuedInResidency, srv.cfg.RequestsPerStream)
	}
	invariants.Check(staged == sh.memUsed,
		"shard %d buffers hold %d bytes but accounting says %d", sh.idx, staged, sh.memUsed)
	invariants.Check(nbuf == sh.bufCount,
		"shard %d has %d live buffers but accounting says %d", sh.idx, nbuf, sh.bufCount)
	invariants.Check(ndispatched == sh.dispatched,
		"shard %d has %d streams marked dispatched but counter says %d", sh.idx, ndispatched, sh.dispatched)

	for disk, m := range sh.byExpected {
		for off, st := range m {
			invariants.Check(disk == st.disk && off == st.nextClient,
				"stream %d indexed under (disk=%d, off=%d) but expects (disk=%d, off=%d)",
				st.id, disk, off, st.disk, st.nextClient)
		}
	}
}

// noIdleFloor is the idle floor of a shard with no live buffer.
const noIdleFloor = time.Duration(math.MaxInt64)

// findEvictVictim returns the shard's least-recently-active staged
// buffer that is ready, has no waiter, and has been idle at least
// EvictIdle (with its owner), or nils. While the idle floor proves
// that no buffer is idle that long it answers without a scan; a scan
// recomputes the floor. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) findEvictVictim() (*stream, *buffer) {
	now := sh.srv.clock.Now()
	idle := sh.srv.cfg.EvictIdle
	if now-idle < sh.idleFloor {
		return nil, nil
	}
	sh.evictScans++
	floor := noIdleFloor
	var victim *buffer
	var owner *stream
	for _, st := range sh.streams {
		for _, b := range st.buffers {
			if b.lastActive < floor {
				floor = b.lastActive
			}
			if st.fetchInFlight || !b.ready || now-b.lastActive < idle {
				continue
			}
			if hasWaiter(st, b) {
				continue
			}
			if victim == nil || b.lastActive < victim.lastActive {
				victim, owner = b, st
			}
		}
	}
	sh.idleFloor = floor
	return owner, victim
}

// evictIdleBuffer frees the shard's LRU evictable staged buffer,
// reporting whether anything was freed. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) evictIdleBuffer() bool {
	owner, victim := sh.findEvictVictim()
	if victim == nil {
		return false
	}
	now := sh.srv.clock.Now()
	sh.stats.BuffersEvicted++
	sh.srv.cfg.Obs.span(now, owner.id, victim.disk, obs.StageEvict, victim.start, victim.size())
	if sh.fr != nil {
		sh.fr.Record(flight.Event{Op: flight.OpEvict, Disk: uint16(victim.disk),
			Stream: int32(owner.id), Offset: victim.start, Length: victim.size(), T: now})
	}
	sh.freeBuffer(owner, victim, false)
	// Unconsumed data was dropped; a later request for it rewinds the
	// fetch pointer (acceptStreamRequest).
	return true
}

// hasWaiter reports whether any queued request of st falls inside b.
func hasWaiter(st *stream, b *buffer) bool {
	for _, p := range st.queue {
		if b.covers(p.off, p.length) {
			return true
		}
	}
	return false
}

// issueFetch generates one R-sized disk request for a dispatched
// stream, reserving its bytes against the global budget and drawing
// its staging memory from the pool when the device reads into caller
// buffers. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) issueFetch(st *stream) {
	srv := sh.srv
	capacity := srv.dev.Capacity(st.disk)
	flen := srv.cfg.ReadAhead
	if rem := capacity - st.nextFetch; flen > rem {
		flen = rem
	}
	if flen <= 0 {
		sh.rotateOut(st)
		return
	}
	if !srv.memReserve(flen) {
		// Another shard won the admission-check race for the last
		// bytes; give the slot back and wait for a release.
		sh.markBlocked()
		sh.rotateOut(st)
		return
	}
	now := srv.clock.Now()
	b := &buffer{
		disk:       st.disk,
		readDisk:   sh.pickFetchDisk(st.disk),
		start:      st.nextFetch,
		end:        st.nextFetch + flen,
		lastActive: now,
		issuedAt:   now,
		owner:      st,
	}
	if now < sh.idleFloor {
		sh.idleFloor = now
	}
	if srv.rinto != nil {
		b.pbuf = srv.pool.Get(flen)
	}
	b.inDevice = true
	if b.readDisk != st.disk {
		sh.stats.SteeredFetches++
	}
	st.buffers = append(st.buffers, b)
	st.nextFetch = b.end
	st.fetchInFlight = true
	st.totalFetched += flen
	sh.memUsed += flen
	sh.bufCount++
	srv.bufCount.Add(1)
	sh.updateAccounting()
	sh.stats.Fetches++
	sh.stats.BytesFetched += flen
	srv.cfg.Obs.span(now, st.id, st.disk, obs.StageFetch, b.start, flen)
	// Device-level events carry the disk the read actually lands on
	// (readDisk), so per-disk latency attribution stays truthful when
	// steering routes around the primary.
	if sh.fr != nil {
		sh.fr.Record(flight.Event{Op: flight.OpFetch, Disk: uint16(b.readDisk),
			Stream: int32(st.id), Offset: b.start, Length: flen, T: b.issuedAt})
	}

	// The device call runs off-lock (the flush). The stream cannot
	// issue a second fetch meanwhile: fetchInFlight stays set until the
	// completion path clears it.
	sh.armFetchDeadline(st, b)
	sh.armSpeculation(st, b)
	sh.pendingIO = append(sh.pendingIO, ioCall{st: st, b: b, pb: b.pbuf})
}

// armFetchDeadline starts the FetchTimeout timer for a buffer's fetch,
// replacing any previous timer. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) armFetchDeadline(st *stream, b *buffer) {
	if sh.srv.cfg.FetchTimeout <= 0 {
		return
	}
	if b.cancelTimeout != nil {
		b.cancelTimeout()
	}
	b.cancelTimeout = sh.srv.clock.Schedule(sh.srv.cfg.FetchTimeout, func() {
		sh.onFetchTimeout(st, b)
	})
}

// onFetchTimeout fires when a fetch outlives FetchTimeout: the waiters
// covered by the buffer receive ErrFetchTimeout, the staged memory is
// reclaimed, and the stream leaves the dispatch set so the slot goes to
// a live stream. The late device completion, if it ever arrives, is
// dropped by the abandoned flag — and is also what recycles the pooled
// memory, because the device may still be writing into it. Only when
// no call is in flight (the fetch was in retry backoff) is the pooled
// buffer released here. The timeout counts as a device failure toward
// the disk's circuit.
func (sh *shard) onFetchTimeout(st *stream, b *buffer) {
	srv := sh.srv
	sh.mu.Lock()
	if b.ready || b.abandoned {
		sh.mu.Unlock()
		return // completed (or already timed out) before the timer ran
	}
	b.abandoned = true
	b.cancelTimeout = nil
	if b.specCancel != nil {
		b.specCancel()
		b.specCancel = nil
	}
	st.fetchInFlight = false
	now := srv.clock.Now()
	sh.stats.FetchTimeouts++
	if sh.fr != nil {
		sh.fr.Record(flight.Event{Op: flight.OpTimeout, Err: flight.ErrTimeout, Disk: uint16(st.disk),
			Stream: int32(st.id), Offset: b.start, Length: b.size(), T: now, Dur: now - b.issuedAt})
	}
	sh.noteReadOutcome(b.readDisk, false, now)
	var failed []pendingReq
	st.queue, failed = splitCovered(st.queue, b)
	for _, p := range failed {
		sh.scoreMiss(st.slo, b.readDisk, int32(st.id), p.trace, p.off, p.length, now-p.start, now)
	}
	sh.freeBuffer(st, b, false)
	if !b.inDevice && b.pbuf != nil {
		b.pbuf.Release()
		b.pbuf = nil
	}
	sh.parkStream(st)
	sh.checkInvariants()
	for _, p := range failed {
		sh.enqueueDone(p.done, Response{Start: p.start, End: now, Err: ErrFetchTimeout}, p.length)
	}
	sh.unlockAndFlush()
}

// scheduleRetry re-issues a transiently-failed fetch after exponential
// backoff (RetryBackoff doubling per attempt). The buffer stays live —
// memory accounted, waiters queued, fetchInFlight held, pooled bytes
// attached — so the stream cannot double-fetch the range meanwhile.
// The FetchTimeout deadline is NOT re-armed: it bounds the whole
// fetch, retries included, and may fire mid-backoff. Caller holds
// sh.mu.
//
//lint:holds mu
func (sh *shard) scheduleRetry(st *stream, b *buffer) {
	sh.stats.FetchRetries++
	if sh.fr != nil {
		sh.fr.Record(flight.Event{Op: flight.OpRetry, Disk: uint16(st.disk),
			Stream: int32(st.id), Offset: b.start, Length: b.size(), T: sh.srv.clock.Now()})
	}
	backoff := sh.srv.cfg.RetryBackoff << (b.attempts - 1)
	sh.srv.clock.Schedule(backoff, func() {
		sh.mu.Lock()
		if b.abandoned || b.ready {
			// Timed out while backing off (pooled bytes already freed), or
			// a speculative leg won meanwhile (its win recycled this leg's
			// bytes); either way the re-issue is dead.
			sh.mu.Unlock()
			return
		}
		b.inDevice = true
		sh.pendingIO = append(sh.pendingIO, ioCall{st: st, b: b, pb: b.pbuf})
		sh.unlockAndFlush()
	})
}

// onFetchDone routes the fetch's device completion through the
// shard's completion reaper, which batches concurrent completions
// under one lock hold.
func (sh *shard) onFetchDone(st *stream, b *buffer, data []byte, derr error) {
	sh.enqueueCompletion(completion{st: st, b: b, data: data, err: derr})
}

// onFetchDoneLocked is the completion path (§4.2). It gives priority
// to the issue path — the next fetch (or the next candidate stream)
// is issued before any pending client requests are completed — so the
// disks never idle behind client completions. Deliveries and failure
// completions alike are queued for the reaper's flush, which runs them
// after the lock is released. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) onFetchDoneLocked(st *stream, b *buffer, data []byte, derr error) {
	srv := sh.srv
	now := srv.clock.Now()
	b.inDevice = false
	if sp := b.spec; sp != nil && sp.won {
		// A speculative leg already delivered this buffer. The late
		// primary completion only recycles the pooled bytes the device
		// was writing into, stashed in the spec record at win time, and
		// books its outcome with the slow disk's breaker.
		sp.pbuf.Release()
		sp.pbuf = nil
		b.spec = nil
		sh.noteReadOutcome(b.readDisk, derr == nil, now)
		return
	}
	if b.abandoned {
		// The fetch already hit FetchTimeout: memory reclaimed, waiters
		// failed, stream parked. Drop the late completion; the pooled
		// bytes the device was still writing into are safe to recycle
		// only now.
		b.pbuf.Release()
		b.pbuf = nil
		return
	}
	if derr != nil && b.attempts < srv.cfg.FetchRetries && blockdev.IsTransient(derr) {
		// Transient device error with retry budget left: re-issue the
		// same fetch after backoff instead of failing its waiters. The
		// deadline timer stays armed across attempts.
		b.attempts++
		sh.scheduleRetry(st, b)
		return
	}
	if derr != nil && b.spec != nil && !b.spec.done {
		// Terminal primary error while a speculative leg is still in
		// flight: park the buffer on the replica instead of failing its
		// waiters — the duplicate may still deliver the data. The
		// primary's pooled bytes are safe to recycle (its completion
		// just arrived); the fetch deadline stays armed to bound the
		// spec leg. onSpecDone settles the buffer either way.
		b.primaryFailed = true
		if b.pbuf != nil {
			b.pbuf.Release()
			b.pbuf = nil
		}
		sh.noteReadOutcome(b.readDisk, false, now)
		if sh.fr != nil {
			sh.fr.Record(flight.Event{Op: flight.OpFetchErr, Err: flight.ErrIO, Disk: uint16(b.readDisk),
				Stream: int32(st.id), Offset: b.start, Length: b.size(), T: now, Dur: now - b.issuedAt})
		}
		return
	}
	if b.cancelTimeout != nil {
		b.cancelTimeout()
		b.cancelTimeout = nil
	}
	if b.specCancel != nil {
		b.specCancel()
		b.specCancel = nil
	}
	b.ready = true
	b.data = data
	if data == nil && b.pbuf != nil {
		// The device did not materialize bytes into the pooled buffer
		// (simulation-style backend); nothing references it.
		b.pbuf.Release()
		b.pbuf = nil
	}
	b.lastActive = now
	if o := srv.cfg.Obs; o != nil {
		o.fetchLatency.Observe(now - b.issuedAt)
		o.span(now, st.id, st.disk, obs.StageStaged, b.start, b.size())
	}
	if w := srv.win; w != nil {
		w.observeFetch(b.readDisk, now, now-b.issuedAt)
	}
	if sh.fr != nil {
		op, code := flight.OpStaged, flight.ErrNone
		if derr != nil {
			op, code = flight.OpFetchErr, flight.ErrIO
		}
		sh.fr.Record(flight.Event{Op: op, Err: code, Disk: uint16(b.readDisk),
			Stream: int32(st.id), Offset: b.start, Length: b.size(), T: now, Dur: now - b.issuedAt})
	}
	st.fetchInFlight = false
	st.issuedInResidency++
	sh.lastOffset[st.disk] = b.end

	if derr != nil {
		// Fail everything waiting on this buffer and drop it.
		sh.noteReadOutcome(b.readDisk, false, now)
		var failed []pendingReq
		st.queue, failed = splitCovered(st.queue, b)
		for _, p := range failed {
			sh.scoreMiss(st.slo, b.readDisk, int32(st.id), p.trace, p.off, p.length, now-p.start, now)
		}
		sh.freeBuffer(st, b, false)
		sh.parkStream(st)
		sh.checkInvariants()
		for _, p := range failed {
			sh.enqueueDone(p.done, Response{Start: p.start, End: now, Err: derr}, p.length)
		}
		return
	}

	sh.noteReadOutcome(b.readDisk, true, now)

	// Issue path first.
	if st.dispatched {
		if st.issuedInResidency < srv.cfg.RequestsPerStream &&
			st.nextFetch < srv.dev.Capacity(st.disk) &&
			srv.memWouldFit(srv.cfg.ReadAhead) {
			sh.issueFetch(st)
		} else {
			sh.rotateOut(st)
		}
	}

	// Completion path: serve queued requests now covered by staged
	// data, in order.
	sh.drainQueue(st, now)
	sh.checkInvariants()
}

// drainQueue serves the head of the stream queue while ready buffers
// cover it. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) drainQueue(st *stream, now time.Duration) {
	for len(st.queue) > 0 {
		p := st.queue[0]
		var hit *buffer
		for _, b := range st.buffers {
			if b.ready && b.covers(p.off, p.length) {
				hit = b
				break
			}
		}
		if hit == nil {
			return
		}
		st.queue = st.queue[1:]
		sh.stats.QueuedServed++
		sh.serveFromBuffer(st, hit, p, now)
	}
}

// splitCovered partitions queue into (kept, covered-by-b).
func splitCovered(queue []pendingReq, b *buffer) (kept, covered []pendingReq) {
	for _, p := range queue {
		if b.covers(p.off, p.length) {
			covered = append(covered, p)
		} else {
			kept = append(kept, p)
		}
	}
	return kept, covered
}

// rotateOut removes a stream from the dispatch set (§4.2: after N
// requests it is replaced by the next sequential stream) and re-queues
// it as a candidate when it still has work. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) rotateOut(st *stream) {
	sh.unDispatch(st)
	st.issuedInResidency = 0
	if !st.queued && sh.eligible(st) {
		sh.enqueueCandidate(st)
	}
	sh.maybeRetire(st)
	sh.pump()
}

// parkStream removes a stream whose fetch failed (or timed out) from
// the dispatch set without re-admitting it to the candidate queue:
// speculatively prefetching the next window of a stream that just lost
// its staged data — with nobody waiting — only burns a sick disk
// further. The stream re-enters on its next client request (or idles
// out and is collected). Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) parkStream(st *stream) {
	sh.unDispatch(st)
	st.issuedInResidency = 0
	sh.maybeRetire(st)
	sh.pump()
}

// unDispatch releases a stream's dispatch slot, both locally and in
// the global counter. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) unDispatch(st *stream) {
	if !st.dispatched {
		return
	}
	st.dispatched = false
	sh.dispatched--
	sh.srv.slotRelease()
	if sh.perDisk[st.disk] > 0 {
		sh.perDisk[st.disk]--
	}
	sh.stats.Rotations++
	// Rotation is worth a timeline entry: dispatch-set churn is the
	// §4.2 mechanism the paper's fairness argument rests on.
	if sh.srv.cfg.Obs.Spans() != nil || sh.fr != nil {
		now := sh.srv.clock.Now()
		sh.srv.cfg.Obs.span(now, st.id, st.disk, obs.StageRotate, st.nextFetch, 0)
		if sh.fr != nil {
			sh.fr.Record(flight.Event{Op: flight.OpRotate, Disk: uint16(st.disk),
				Stream: int32(st.id), Offset: st.nextFetch, T: now})
		}
	}
}

// freeBuffer releases a staged buffer's memory: the global budget
// bytes always; the pooled bytes only when no device call can still
// touch them (abandoned fetches recycle through the late completion
// instead). Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) freeBuffer(st *stream, b *buffer, gc bool) {
	for i, cur := range st.buffers {
		if cur == b {
			st.buffers = append(st.buffers[:i], st.buffers[i+1:]...)
			break
		}
	}
	sh.memUsed -= b.size()
	sh.bufCount--
	sh.srv.bufCount.Add(-1)
	sh.srv.memRelease(b.size())
	if b.specCancel != nil {
		b.specCancel()
		b.specCancel = nil
	}
	b.data = nil
	if !b.abandoned && b.pbuf != nil {
		b.pbuf.Release()
		b.pbuf = nil
	}
	if gc {
		sh.stats.BuffersGCed++
	} else {
		sh.stats.BuffersFreed++
	}
	sh.updateAccounting()
}

// maybeRetire drops a stream that has prefetched to the end of its
// disk and holds no data or waiters. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) maybeRetire(st *stream) {
	if st.dispatched || st.queued || st.fetchInFlight {
		return
	}
	if st.nextFetch < sh.srv.dev.Capacity(st.disk) {
		return
	}
	if len(st.buffers) > 0 || len(st.queue) > 0 {
		return
	}
	if _, ok := sh.streams[st.id]; !ok {
		return
	}
	delete(sh.streams, st.id)
	sh.byExpected.del(st.disk, st.nextClient)
	sh.srv.sloLedger.Retire(st.slo)
	sh.srv.liveStreams.Add(-1)
	sh.stats.StreamsRetired++
	if sh.srv.cfg.Obs.Spans() != nil || sh.fr != nil {
		now := sh.srv.clock.Now()
		sh.srv.cfg.Obs.span(now, st.id, st.disk, obs.StageRetire, st.nextClient, 0)
		if sh.fr != nil {
			sh.fr.Record(flight.Event{Op: flight.OpRetire, Disk: uint16(st.disk),
				Stream: int32(st.id), Offset: st.nextClient, T: now})
		}
	}
}

func (sh *shard) updateAccounting() {
	if sh.srv.acct != nil {
		sh.srv.acct.SetLiveBuffers(int(sh.srv.bufCount.Load()))
	}
}

// gcTick is the periodic garbage collector (§4.3) for one shard: it
// frees staged buffers that have waited too long for their remaining
// requests, and removes streams (queues, hash entries) that were
// classified as sequential but went idle.
func (sh *shard) gcTick() {
	srv := sh.srv
	sh.mu.Lock()
	sh.gcArmed = false
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	now := srv.clock.Now()
	sh.stats.GCTicks++

	for id, st := range sh.streams {
		// Streams with in-flight fetches or waiting clients are live by
		// definition: a waiter's data is either in flight or the stream
		// is queued/eligible, so it will be served.
		if st.fetchInFlight || len(st.queue) > 0 || st.dispatched {
			continue
		}
		// Free idle staged buffers (prefetched data nobody came back
		// for). The fetch pointer rewinds on a later request for the
		// dropped range (acceptStreamRequest).
		for _, b := range append([]*buffer(nil), st.buffers...) {
			if b.ready && now-b.lastActive > srv.cfg.BufferTimeout {
				sh.freeBuffer(st, b, true)
			}
		}
		// Drop idle streams entirely: queue, hash entry, candidacy.
		if now-st.lastActive > srv.cfg.StreamTimeout {
			for _, b := range append([]*buffer(nil), st.buffers...) {
				sh.freeBuffer(st, b, true)
			}
			if st.queued {
				for i, c := range sh.candidates {
					if c == st {
						sh.candidates = append(sh.candidates[:i], sh.candidates[i+1:]...)
						break
					}
				}
				st.queued = false
				srv.liveCands.Add(-1)
			}
			delete(sh.streams, id)
			sh.byExpected.del(st.disk, st.nextClient)
			srv.sloLedger.Retire(st.slo)
			srv.liveStreams.Add(-1)
			sh.stats.StreamsGCed++
			srv.cfg.Obs.span(now, st.id, st.disk, obs.StageGC, st.nextClient, 0)
			if sh.fr != nil {
				sh.fr.Record(flight.Event{Op: flight.OpGC, Disk: uint16(st.disk),
					Stream: int32(st.id), Offset: st.nextClient, T: now})
			}
		}
	}
	sh.stats.RegionsGCed += int64(sh.cls.gc(now - srv.cfg.StreamTimeout))
	sh.pump()
	sh.armGC()
	sh.checkInvariants()
	sh.unlockAndFlush()
}
