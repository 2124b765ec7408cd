package core

import (
	"time"

	"seqstream/internal/bufpool"
	"seqstream/internal/flight"
	"seqstream/internal/obs"
)

// This file is the straggler-aware dispatch layer: when Config.Replicas
// mirrors stream regions across R disks, fetches can be steered away
// from a slow-but-alive primary (pickFetchDisk) and a fetch that
// overstays its disk's windowed latency quantile can be re-issued
// speculatively on a replica (armSpeculation → onSpecTimer), with the
// first completion winning. Both mechanisms consume the sliding-window
// telemetry (LatencyWindows) and the lock-free breaker mirror
// (Server.diskDown); neither touches another shard's lock inline.

// steerMinEwma floors the disk EWMA at which steering, the rotation's
// deprioritization and speculation timer arming engage: a disk whose
// fetches complete below it is healthy no matter how its EWMA compares
// to an even faster peer's, so microsecond-scale jitter on fast devices
// cannot masquerade as a straggler, and no per-fetch speculation timer
// is armed for reads that will complete in microseconds.
const steerMinEwma = time.Millisecond

// specFetch is one speculative duplicate of a buffer's fetch, issued
// on a replica of the buffer's disk while the primary leg is still
// outstanding.
type specFetch struct {
	// disk is the replica the duplicate was issued to.
	disk int
	// pbuf is the duplicate's own pooled staging memory, deliberately
	// not accounted against M (like the direct path's transient
	// buffers): a speculation is a bounded, short-lived duplicate, and
	// charging it would let a slow disk shrink the staging budget the
	// healthy disks are using. On a win it swaps into the buffer; the
	// loser leg's bytes are recycled when its late completion arrives.
	pbuf     *bufpool.Buf
	issuedAt time.Duration
	// done marks the spec completion's arrival (win or lose).
	done bool
	// won marks that the spec leg delivered the buffer; the late
	// primary completion then only recycles the pooled bytes stashed
	// back in pbuf and drops its result.
	won bool
}

// replicaSet returns primary's replica set ([primary, mirrors...]),
// or nil when replication is off or the disk is out of range.
func (s *Server) replicaSet(primary int) []int {
	if s.replicas == nil || primary < 0 || primary >= len(s.replicas) {
		return nil
	}
	return s.replicas[primary]
}

// diskDownFast reports the lock-free mirror of disk's breaker-open
// state. False when replication is off (the mirror only exists then)
// or the disk is out of range.
func (s *Server) diskDownFast(disk int) bool {
	if s.diskDown == nil || disk < 0 || disk >= len(s.diskDown) {
		return false
	}
	return s.diskDown[disk].Load()
}

// pickFetchDisk chooses the disk a dispatched stream's next fetch goes
// to: the primary, unless the primary's circuit is open or its seeded
// fetch EWMA exceeds SteerFactor times the fastest seeded healthy
// replica's. Unseeded replicas are never ranked — an unseeded EWMA
// reads zero, which would make an idle disk look infinitely fast —
// they only serve as a last resort when the primary is down. Every
// 16th pick probes the primary regardless of rank so its EWMA keeps
// tracking reality and recovery is noticed. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) pickFetchDisk(primary int) int {
	srv := sh.srv
	set := srv.replicaSet(primary)
	if len(set) < 2 || srv.cfg.SteerFactor <= 0 || srv.win == nil {
		return primary
	}
	primaryDown := srv.diskDownFast(primary)
	if !primaryDown {
		sh.steerTick++
		if sh.steerTick&0xf == 0 {
			return primary
		}
		if !srv.win.DiskEWMASeeded(primary) {
			return primary
		}
		// A primary below the EWMA floor is healthy however it ranks:
		// sub-floor disparities are device jitter, not straggling, and
		// steering on them costs cross-disk locality for nothing.
		if srv.win.DiskEWMA(primary) <= steerMinEwma {
			return primary
		}
	}
	best, fallback := -1, -1
	var bestEwma time.Duration
	for _, d := range set[1:] {
		if srv.diskDownFast(d) {
			continue
		}
		if fallback < 0 {
			fallback = d
		}
		if !srv.win.DiskEWMASeeded(d) {
			continue
		}
		if e := srv.win.DiskEWMA(d); best < 0 || e < bestEwma {
			best, bestEwma = d, e
		}
	}
	if primaryDown {
		if best >= 0 {
			return best
		}
		if fallback >= 0 {
			return fallback
		}
		return primary
	}
	if best < 0 {
		return primary
	}
	if float64(srv.win.DiskEWMA(primary)) <= srv.cfg.SteerFactor*float64(bestEwma) {
		return primary
	}
	return best
}

// steerBaseline returns the minimum seeded fetch EWMA among the
// candidate queue's disks — the reference the soft deprioritization in
// pump compares against — or zero when steering is off or nothing is
// seeded. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) steerBaseline() time.Duration {
	srv := sh.srv
	if srv.cfg.SteerFactor <= 0 || srv.win == nil {
		return 0
	}
	var base time.Duration
	for _, c := range sh.candidates {
		if !srv.win.DiskEWMASeeded(c.disk) {
			continue
		}
		if e := srv.win.DiskEWMA(c.disk); base == 0 || e < base {
			base = e
		}
	}
	return base
}

// diskSlow reports whether disk's seeded fetch EWMA exceeds
// SteerFactor times the baseline — the soft analog of diskBlocked the
// admission loop uses to deprioritize slow-but-alive disks. Unseeded
// disks are never slow (satellite of the unseeded-reads-zero fix),
// and neither is any disk below the steerMinEwma floor.
func (sh *shard) diskSlow(disk int, baseline time.Duration) bool {
	srv := sh.srv
	if baseline <= 0 || !srv.win.DiskEWMASeeded(disk) {
		return false
	}
	e := srv.win.DiskEWMA(disk)
	if e <= steerMinEwma {
		return false
	}
	return float64(e) > srv.cfg.SteerFactor*float64(baseline)
}

// armSpeculation schedules the speculative-trigger timer for a fetch
// just issued on b.readDisk: if the fetch is still outstanding after
// the disk's windowed SpecQuantile latency (floored at SpecMinDelay),
// a duplicate is issued on a replica. No timer is armed before the
// disk's window holds SpecMinSamples fetches — quantiles of a handful
// of samples fire spuriously — or when the quantile estimate is
// unbounded (every sample in the overflow bucket). Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) armSpeculation(st *stream, b *buffer) {
	srv := sh.srv
	if srv.cfg.SpecQuantile <= 0 || srv.win == nil || len(srv.replicaSet(b.disk)) < 2 {
		return
	}
	if srv.win.DiskEWMA(b.readDisk) <= steerMinEwma {
		// Same floor as steering: a disk whose fetches complete below
		// steerMinEwma cannot meaningfully straggle mid-flight, and the
		// per-fetch arm-then-cancel timer is the dominant cost of
		// speculation on a healthy fleet. A disk that does slow down
		// lifts its EWMA past the floor within a few samples and
		// arming resumes.
		return
	}
	s := srv.win.DiskFetch(b.readDisk)
	if s.Count < int64(srv.cfg.SpecMinSamples) {
		return
	}
	delay := s.Quantile(srv.cfg.SpecQuantile)
	if delay < srv.cfg.SpecMinDelay {
		delay = srv.cfg.SpecMinDelay
	}
	if delay > srv.cfg.WindowSpan {
		// An upper bound beyond the whole window is no estimate at all
		// (overflow bucket); the fetch deadline covers pathology.
		return
	}
	b.specCancel = srv.clock.Schedule(delay, func() {
		sh.onSpecTimer(st, b)
	})
}

// onSpecTimer fires when a fetch has been outstanding past its disk's
// latency quantile: issue the duplicate on the best replica. The timer
// races the completion path, so every terminal state re-checks under
// the lock.
func (sh *shard) onSpecTimer(st *stream, b *buffer) {
	srv := sh.srv
	sh.mu.Lock()
	b.specCancel = nil
	if b.ready || b.abandoned || b.spec != nil || sh.closed {
		sh.mu.Unlock()
		return
	}
	disk := sh.pickSpecDisk(b)
	if disk < 0 {
		sh.mu.Unlock()
		return
	}
	now := srv.clock.Now()
	sp := &specFetch{disk: disk, issuedAt: now}
	if srv.rinto != nil {
		sp.pbuf = srv.pool.Get(b.size())
	}
	b.spec = sp
	sh.stats.Speculations++
	// Disk is the slow leg's disk and Dur how long it had been
	// outstanding when the duplicate was armed — the detector-facing
	// half of the record; OpSpecWin carries the replica side.
	if sh.fr != nil {
		sh.fr.Record(flight.Event{Op: flight.OpSpeculate, Disk: uint16(b.readDisk),
			Stream: int32(st.id), Offset: b.start, Length: b.size(), T: now, Dur: now - b.issuedAt})
	}
	sh.pendingIO = append(sh.pendingIO, ioCall{fn: sh.specCall(st, b, sp)})
	sh.unlockAndFlush()
}

// pickSpecDisk chooses the replica a speculative duplicate goes to:
// the fastest seeded healthy member of the buffer's replica set other
// than the disk the slow leg is on, falling back to any healthy member
// when none is seeded, or -1 when no replica qualifies. Caller holds
// sh.mu.
//
//lint:holds mu
func (sh *shard) pickSpecDisk(b *buffer) int {
	srv := sh.srv
	best, fallback := -1, -1
	var bestEwma time.Duration
	for _, d := range srv.replicaSet(b.disk) {
		if d == b.readDisk || srv.diskDownFast(d) {
			continue
		}
		if !srv.win.DiskEWMASeeded(d) {
			if fallback < 0 {
				fallback = d
			}
			continue
		}
		if e := srv.win.DiskEWMA(d); best < 0 || e < bestEwma {
			best, bestEwma = d, e
		}
	}
	if best >= 0 {
		return best
	}
	return fallback
}

// specCall builds the off-lock device call for a speculative leg,
// mirroring a fetch's ioCall. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) specCall(st *stream, b *buffer, sp *specFetch) func() {
	srv := sh.srv
	// Captured under the lock, like a fetch's ioCall.pb: sp.pbuf is
	// repointed at the primary's stashed bytes when this leg wins, and
	// the device write must keep targeting the duplicate's own memory.
	pb := sp.pbuf
	return func() {
		var err error
		if pb != nil {
			err = srv.rinto.ReadInto(sp.disk, b.start, b.size(), pb.Data, func(data []byte, derr error) {
				sh.onSpecDone(st, b, sp, data, derr)
			})
		} else {
			err = srv.dev.ReadAt(sp.disk, b.start, b.size(), func(data []byte, derr error) {
				sh.onSpecDone(st, b, sp, data, derr)
			})
		}
		if err != nil {
			sh.onSpecDone(st, b, sp, nil, err)
		}
	}
}

// onSpecDone is the speculative leg's completion. Outcomes:
//
//   - the primary already delivered (or the buffer timed out): the
//     spec lost — recycle its memory, note the outcome on its disk;
//   - the spec failed while the primary is still in flight: drop it,
//     the primary decides the buffer's fate;
//   - the spec failed after the primary failed terminally: both legs
//     are dead — fail the waiters exactly like a plain fetch error;
//   - the spec succeeded first: it wins — its pooled bytes become the
//     staged data, the primary's bytes are stashed in the spec record
//     when its device call is still writing into them (the late
//     completion recycles them; see onFetchDone) or recycled now.
func (sh *shard) onSpecDone(st *stream, b *buffer, sp *specFetch, data []byte, derr error) {
	srv := sh.srv
	sh.mu.Lock()
	sp.done = true
	now := srv.clock.Now()
	if b.spec != sp || b.ready || b.abandoned {
		// Lost (or the buffer is gone): the device is finished with the
		// duplicate's memory, recycle it.
		sp.pbuf.Release()
		sp.pbuf = nil
		if b.spec == sp {
			b.spec = nil
		}
		sh.noteReadOutcome(sp.disk, derr == nil, now)
		sh.unlockAndFlush()
		return
	}
	if derr != nil {
		sp.pbuf.Release()
		sp.pbuf = nil
		b.spec = nil
		sh.noteReadOutcome(sp.disk, false, now)
		if !b.primaryFailed {
			// The primary leg is still in flight; it decides.
			sh.unlockAndFlush()
			return
		}
		// Both legs failed terminally: fail the waiters like the plain
		// error path in onFetchDone.
		if b.cancelTimeout != nil {
			b.cancelTimeout()
			b.cancelTimeout = nil
		}
		st.fetchInFlight = false
		if sh.fr != nil {
			sh.fr.Record(flight.Event{Op: flight.OpFetchErr, Err: flight.ErrIO, Disk: uint16(sp.disk),
				Stream: int32(st.id), Offset: b.start, Length: b.size(), T: now, Dur: now - sp.issuedAt})
		}
		var failed []pendingReq
		st.queue, failed = splitCovered(st.queue, b)
		sh.freeBuffer(st, b, false)
		sh.parkStream(st)
		sh.checkInvariants()
		for _, p := range failed {
			sh.enqueueDone(p.done, Response{Start: p.start, End: now, Err: derr}, p.length)
		}
		sh.unlockAndFlush()
		return
	}

	// The spec leg wins.
	sp.won = true
	if b.cancelTimeout != nil {
		b.cancelTimeout()
		b.cancelTimeout = nil
	}
	winBuf := sp.pbuf
	if b.inDevice {
		// The primary's device call may still be writing into its pooled
		// bytes; stash them in the spec record for the late completion to
		// recycle (onFetchDone's won check).
		sp.pbuf = b.pbuf
	} else {
		// Primary not in the device: it is in retry backoff (the retry
		// closure drops on b.ready) or failed terminally (bytes already
		// recycled). Its memory is safe to recycle now.
		if b.pbuf != nil {
			b.pbuf.Release()
		}
		sp.pbuf = nil
		b.spec = nil
	}
	b.pbuf = winBuf
	b.ready = true
	b.data = data
	if data == nil && b.pbuf != nil {
		// Simulation-style backend: no bytes were materialized.
		b.pbuf.Release()
		b.pbuf = nil
	}
	b.lastActive = now
	st.fetchInFlight = false
	st.issuedInResidency++
	sh.lastOffset[st.disk] = b.end
	sh.stats.SpecWins++
	if o := srv.cfg.Obs; o != nil {
		o.fetchLatency.Observe(now - sp.issuedAt)
		o.span(now, st.id, st.disk, obs.StageStaged, b.start, b.size())
	}
	if w := srv.win; w != nil {
		w.observeFetch(sp.disk, now, now-sp.issuedAt)
	}
	if sh.fr != nil {
		sh.fr.Record(flight.Event{Op: flight.OpSpecWin, Disk: uint16(sp.disk),
			Stream: int32(st.id), Offset: b.start, Length: b.size(), T: now, Dur: now - sp.issuedAt})
		// The staged event closes the fetch→staged timeline on the
		// replica, so the health detectors see the latency the stream
		// actually experienced rather than a dangling slow fetch.
		sh.fr.Record(flight.Event{Op: flight.OpStaged, Disk: uint16(sp.disk),
			Stream: int32(st.id), Offset: b.start, Length: b.size(), T: now, Dur: now - sp.issuedAt})
	}
	sh.noteReadOutcome(sp.disk, true, now)

	// Same order as onFetchDone: issue path first, then the waiters.
	if st.dispatched {
		if st.issuedInResidency < srv.cfg.RequestsPerStream &&
			st.nextFetch < srv.dev.Capacity(st.disk) &&
			srv.memWouldFit(srv.cfg.ReadAhead) {
			sh.issueFetch(st)
		} else {
			sh.rotateOut(st)
		}
	}
	sh.drainQueue(st, now)
	sh.checkInvariants()
	sh.unlockAndFlush()
}

// noteReadOutcome books a device read's success or failure with the
// breaker of the disk that served it. Steered and speculative reads
// can land on disks owned by other shards; their outcome is routed to
// the owning shard through the clock — never by taking a second shard
// lock inline, per the one-lock rule. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) noteReadOutcome(disk int, ok bool, now time.Duration) {
	owner := sh.srv.shardFor(disk)
	if owner == sh {
		if ok {
			sh.noteDiskSuccess(disk)
		} else {
			sh.noteDiskFailure(disk, now)
		}
		return
	}
	sh.srv.clock.Schedule(0, func() {
		owner.mu.Lock()
		if owner.closed {
			owner.mu.Unlock()
			return
		}
		if ok {
			owner.noteDiskSuccess(disk)
		} else {
			owner.noteDiskFailure(disk, owner.srv.clock.Now())
		}
		owner.mu.Unlock()
	})
}
