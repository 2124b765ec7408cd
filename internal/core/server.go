package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/bufpool"
	"seqstream/internal/invariants"
	"seqstream/internal/slo"
)

// Request is one client read arriving at the storage node.
type Request struct {
	Disk   int
	Offset int64
	Length int64
	// Trace is the request's trace id, allocated at ingress (netserve)
	// or supplied by the client; zero means untraced. It is stamped on
	// the flight-recorder events the request generates.
	Trace uint64
	// Done receives the response. It is never invoked while a shard
	// lock is held; it may submit follow-up requests. It may run before
	// Submit returns: a staged hit, a fast-failed request, or a direct
	// read on a device that completes inline.
	Done func(Response)
}

// Response reports a completed client read.
type Response struct {
	// Start and End are measured on the server's clock.
	Start time.Duration
	End   time.Duration
	// Data holds the bytes for backends that materialize them
	// (nil on simulated devices).
	Data []byte
	// FromBuffer marks delivery from the buffered set (a staged hit).
	FromBuffer bool
	// Direct marks delivery through the non-sequential direct path.
	Direct bool
	// Err is non-nil when the device read failed.
	Err error

	// pbuf is the pooled buffer backing Data, when the device read
	// landed in pooled memory. Release recycles it.
	pbuf *bufpool.Buf
}

// Release returns the pooled memory backing Data to the buffer pool.
// Call it at most once, after the last use of Data; consumers that
// never call it merely forgo recycling (the memory is garbage
// collected instead). Safe when no pooled buffer is attached.
func (r *Response) Release() {
	r.pbuf.Release()
	r.pbuf = nil
	r.Data = nil
}

// TakeBuf detaches the pooled buffer backing Data and hands its
// reference to the caller, who becomes responsible for the single
// Release (Data itself stays valid — it aliases the returned
// buffer). It returns nil when the data is not pooled, in which case
// nothing needs releasing. The payload wire path uses it to park the
// staged bytes on a response frame without allocating a closure:
// the connection writer releases the buffer only after the vectored
// write has drained it onto the socket.
func (r *Response) TakeBuf() *bufpool.Buf {
	b := r.pbuf
	r.pbuf = nil
	return b
}

// Stats accumulates server counters. MemoryInUse and LiveBuffers are
// gauges; the rest are monotonic.
type Stats struct {
	Requests         int64
	DirectReads      int64
	BufferHits       int64 // served immediately from a staged buffer
	QueuedServed     int64 // served from a fetch the request waited on
	StreamsDetected  int64
	StreamsRetired   int64 // streams that reached end of disk
	StreamsGCed      int64
	Fetches          int64
	BytesFetched     int64
	BytesDelivered   int64
	BuffersFreed     int64
	BuffersGCed      int64
	BuffersEvicted   int64 // reclaimed under memory pressure (LRU)
	NearSeqAccepted  int64 // requests folded into a stream by proximity
	BytesSkipped     int64 // gap bytes credited as consumed (near-seq)
	RegionsGCed      int64
	FetchRetries     int64 // fetches re-issued after transient device errors
	FetchTimeouts    int64 // fetches failed by the FetchTimeout deadline
	BreakerTrips     int64 // per-disk circuits opened
	BreakerFastFails int64 // requests failed fast by an open circuit
	SteeredFetches   int64 // fetches routed to a replica instead of the primary
	Speculations     int64 // duplicate fetches issued on a replica for a slow leg
	SpecWins         int64 // speculative legs that completed first and delivered
	Rotations        int64 // streams rotated out of the dispatch set
	GCTicks          int64 // garbage collector sweeps
	SLOOnTime        int64 // deliveries scored on time against their SLO deadline
	SLOLate          int64 // deliveries past deadline but within the miss boundary
	SLOMissed        int64 // deliveries past the miss boundary, or failed outright
	MemoryInUse      int64
	PeakMemory       int64
	LiveBuffers      int64
	DisksDegraded    int64 // disks with an open circuit (gauge)
}

// add accumulates the monotonic counters of o into st (the gauge
// fields are filled from the server's atomics, not summed).
func (st *Stats) add(o *Stats) {
	st.Requests += o.Requests
	st.DirectReads += o.DirectReads
	st.BufferHits += o.BufferHits
	st.QueuedServed += o.QueuedServed
	st.StreamsDetected += o.StreamsDetected
	st.StreamsRetired += o.StreamsRetired
	st.StreamsGCed += o.StreamsGCed
	st.Fetches += o.Fetches
	st.BytesFetched += o.BytesFetched
	st.BytesDelivered += o.BytesDelivered
	st.BuffersFreed += o.BuffersFreed
	st.BuffersGCed += o.BuffersGCed
	st.BuffersEvicted += o.BuffersEvicted
	st.NearSeqAccepted += o.NearSeqAccepted
	st.BytesSkipped += o.BytesSkipped
	st.RegionsGCed += o.RegionsGCed
	st.FetchRetries += o.FetchRetries
	st.FetchTimeouts += o.FetchTimeouts
	st.BreakerTrips += o.BreakerTrips
	st.BreakerFastFails += o.BreakerFastFails
	st.SteeredFetches += o.SteeredFetches
	st.Speculations += o.Speculations
	st.SpecWins += o.SpecWins
	st.Rotations += o.Rotations
	st.GCTicks += o.GCTicks
	// SLOOnTime/SLOLate/SLOMissed are filled from the SLO ledger's
	// atomics, not summed across shards.
}

// offIndex finds a stream by disk and next expected offset. Each disk
// has its own map, made on first use, so a lookup hashes one int64
// (the runtime's fast 64-bit-key path) instead of a two-word struct.
type offIndex[V any] []map[int64]V

func newOffIndex[V any](disks int) offIndex[V] { return make(offIndex[V], disks) }

func (x offIndex[V]) get(disk int, off int64) V { return x[disk][off] }

func (x offIndex[V]) put(disk int, off int64, v V) {
	if x[disk] == nil {
		x[disk] = make(map[int64]V)
	}
	x[disk][off] = v
}

// move re-keys v, already indexed under (disk, from), to (disk, to).
func (x offIndex[V]) move(disk int, from, to int64, v V) {
	m := x[disk]
	delete(m, from)
	m[to] = v
}

func (x offIndex[V]) del(disk int, off int64) { delete(x[disk], off) }

// len counts the indexed values over all disks.
func (x offIndex[V]) len() int {
	n := 0
	for _, m := range x {
		n += len(m)
	}
	return n
}

// Server is the storage-node scheduler (§4, Figure 9): classifier →
// dispatch set → disks, with prefetched data staged in the buffered
// set. It is safe for concurrent use; completion callbacks are always
// invoked without any internal lock held.
//
// Internally the scheduler is sharded per disk: each shard owns the
// classifier regions, streams, candidate queue, staged buffers, GC
// cursor, and circuit breaker for its disks behind its own mutex,
// while the two paper-level bounds stay global — the dispatch bound D
// through an atomic slot counter and the memory bound M through an
// atomic byte budget. See shard.go for the ownership rules.
type Server struct {
	cfg   Config
	dev   blockdev.Device
	acct  blockdev.BufferAccounting
	cpu   blockdev.CPUAccounting
	rinto blockdev.ReaderInto
	clock blockdev.Clock
	pool  *bufpool.Pool

	shards []*shard

	// win holds the sliding-window latency telemetry when
	// Config.WindowSpan is positive; nil-checked on every hot path.
	win *LatencyWindows

	// sloLedger is the SLO engine when Config.SLOTarget is positive;
	// every slo.Ledger method is safe on the nil value, so scoring call
	// sites stay unconditional.
	sloLedger *slo.Ledger

	// replicas holds the replica set of every primary disk when
	// Config.Replicas > 1 (nil otherwise): replicas[d][0] == d, the
	// rest are the mirrors blockdev.ReplicaDisks chose at placement
	// time. Immutable after NewServer.
	replicas [][]int

	// diskDown mirrors each disk's breaker-blocked state as lock-free
	// booleans (written by the owning shard on breaker transitions, via
	// publishDiskDown). Replica selection consults it for disks owned
	// by other shards without touching their locks. Nil unless
	// replication is on.
	diskDown []atomic.Bool

	// Global accounting (atomic; see DESIGN.md §10 for the protocol).
	memUsed     atomic.Int64 // staged bytes across shards; never exceeds cfg.Memory
	peakMem     atomic.Int64 // high-water mark of memUsed
	dispatched  atomic.Int64 // dispatch slots in use; never exceeds cfg.DispatchSize
	bufCount    atomic.Int64 // live staged buffers across shards
	liveStreams atomic.Int64 // classified streams across shards
	liveCands   atomic.Int64 // candidate-queue entries across shards
	degraded    atomic.Int64 // disks with an open circuit
	nextID      atomic.Int64 // stream id allocator

	// Cross-shard wakeup: shards blocked on a global budget flag
	// themselves; a release schedules one repump pass off-lock.
	blocked     atomic.Int64
	repumpArmed atomic.Bool
	repumpFn    func()
}

// NewServer builds a server over a device. cfg is defaulted and
// validated.
func NewServer(dev blockdev.Device, clock blockdev.Clock, cfg Config) (*Server, error) {
	if dev == nil {
		return nil, errors.New("core: nil device")
	}
	if clock == nil {
		return nil, errors.New("core: nil clock")
	}
	cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		dev:   dev,
		clock: clock,
	}
	if acct, ok := dev.(blockdev.BufferAccounting); ok {
		s.acct = acct
	}
	if cpu, ok := dev.(blockdev.CPUAccounting); ok {
		s.cpu = cpu
	}
	if ri, ok := dev.(blockdev.ReaderInto); ok {
		// Wrapper devices (fault injectors) expose ReadInto but can only
		// honor it when their inner device does; the gate keeps the
		// pooled path off rather than failing every fetch.
		if g, gated := dev.(blockdev.ReadIntoSupported); !gated || g.SupportsReadInto() {
			s.rinto = ri
			s.pool = bufpool.New()
		}
	}
	if cfg.Replicas > 1 {
		if cfg.Replicas > dev.Disks() {
			return nil, fmt.Errorf("core: %d replicas exceed the device's %d disks", cfg.Replicas, dev.Disks())
		}
		s.replicas = make([][]int, dev.Disks())
		for d := range s.replicas {
			s.replicas[d] = blockdev.ReplicaDisks(d, cfg.Replicas, dev.Disks())
		}
		s.diskDown = make([]atomic.Bool, dev.Disks())
	}
	n := cfg.Shards
	if n <= 0 || n > dev.Disks() {
		n = dev.Disks()
	}
	s.shards = make([]*shard, n)
	for i := range s.shards {
		s.shards[i] = newShard(s, i)
	}
	if cfg.WindowSpan > 0 {
		win, err := newLatencyWindows(clock.Now, cfg.WindowSpan, dev.Disks())
		if err != nil {
			return nil, err
		}
		s.win = win
		if o := cfg.Obs; o != nil {
			o.registerWindows(win)
		}
	}
	if cfg.SLOTarget > 0 {
		ledger, err := slo.NewLedger(slo.Config{
			Target:     cfg.SLOTarget,
			ReadAhead:  cfg.ReadAhead,
			LateFactor: cfg.SLOLateFactor,
			Objective:  cfg.SLOObjective,
			FastWindow: cfg.SLOFastWindow,
			MidWindow:  cfg.SLOMidWindow,
			SlowWindow: cfg.SLOSlowWindow,
			MinSamples: cfg.SLOMinSamples,
		}, clock.Now, dev.Disks())
		if err != nil {
			return nil, err
		}
		s.sloLedger = ledger
		if o := cfg.Obs; o != nil {
			o.registerSLO(ledger)
		}
	}
	if o := cfg.Obs; o != nil {
		o.registerServer(s)
	}
	s.repumpFn = s.repumpPass
	return s, nil
}

// shardFor routes a disk to its owning shard.
func (s *Server) shardFor(disk int) *shard {
	return s.shards[disk%len(s.shards)]
}

// flushSLOShard publishes the SLO pending batches of every disk the
// given shard owns, so stats snapshots report exact totals. The caller
// must hold that shard's lock — the same serialization scoring runs
// under. A no-op without an SLO ledger.
func (s *Server) flushSLOShard(shard int) {
	if s.sloLedger == nil {
		return
	}
	for d := shard; d < s.dev.Disks(); d += len(s.shards) {
		s.sloLedger.Flush(d)
	}
}

// Config returns the effective configuration.
func (s *Server) Config() Config { return s.cfg }

// NumShards returns the number of scheduler shards the node runs
// (Config.Shards resolved against the device's disk count).
func (s *Server) NumShards() int { return len(s.shards) }

// Pool returns the staging buffer pool, or nil when the device does
// not support pooled reads (simulated devices).
func (s *Server) Pool() *bufpool.Pool { return s.pool }

// Disks returns the device's disk count.
func (s *Server) Disks() int { return s.dev.Disks() }

// Windows returns the sliding-window latency telemetry, nil unless
// Config.WindowSpan enabled it. Every LatencyWindows accessor is safe
// on the nil result.
func (s *Server) Windows() *LatencyWindows { return s.win }

// SLO returns the SLO ledger, nil unless Config.SLOTarget enabled it.
// Every slo.Ledger accessor is safe on the nil result.
func (s *Server) SLO() *slo.Ledger { return s.sloLedger }

// BreakerInfo reports one disk's circuit-breaker state for the health
// rollup.
type BreakerInfo struct {
	Disk  int
	State string // "closed", "open", or "half-open"
	// ReopenAt is when an open circuit starts probing again (server
	// clock); zero unless State is "open".
	ReopenAt time.Duration
}

// BreakerInfos lists every disk whose circuit currently exists (the
// breaker map is lazy: a disk appears after its first device failure,
// so absence means closed). Empty when the breaker is disabled. Each
// shard is locked briefly in turn; the result is not a single
// consistent cut, matching Stats.
func (s *Server) BreakerInfos() []BreakerInfo {
	if s.cfg.BreakerThreshold <= 0 {
		return nil
	}
	var out []BreakerInfo
	for _, sh := range s.shards {
		sh.mu.Lock()
		for disk, b := range sh.breakers {
			info := BreakerInfo{Disk: disk}
			switch b.state {
			case breakerOpen:
				info.State = "open"
				info.ReopenAt = b.reopenAt
			case breakerHalfOpen:
				info.State = "half-open"
			default:
				info.State = "closed"
			}
			out = append(out, info)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Disk < out[j].Disk })
	return out
}

// Stats returns a snapshot of the counters: the monotonic counters
// summed across shards, the gauges from the global accounting.
func (s *Server) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		s.flushSLOShard(sh.idx)
		part := sh.stats
		sh.mu.Unlock()
		st.add(&part)
	}
	st.MemoryInUse = s.memUsed.Load()
	st.PeakMemory = s.peakMem.Load()
	st.LiveBuffers = s.bufCount.Load()
	st.DisksDegraded = s.degraded.Load()
	st.SLOOnTime, st.SLOLate, st.SLOMissed = s.sloLedger.Totals()
	return st
}

// Snapshot couples the counters with the scheduler gauges. Everything
// is read holding every shard lock, so the fields are mutually
// consistent — polling Stats, ActiveStreams, and DispatchedStreams
// separately can interleave with dispatch and observe states that
// never coexisted.
type Snapshot struct {
	Stats             Stats
	ActiveStreams     int
	DispatchedStreams int
	CandidateQueue    int
}

// Snapshot returns a mutually consistent view of counters and gauges.
// Shard locks are taken in index order, so Snapshot may run
// concurrently with itself and with request traffic.
func (s *Server) Snapshot() Snapshot {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	var snap Snapshot
	localDispatched := 0
	var localMem int64
	for _, sh := range s.shards {
		s.flushSLOShard(sh.idx)
	}
	// Every shard lock was taken in the loop above; the per-iteration
	// lock set is outside the flow model shardcheck can prove.
	for _, sh := range s.shards {
		snap.Stats.add(&sh.stats)               //lint:allow shardcheck all shard locks held (index-order loop above)
		snap.ActiveStreams += len(sh.streams)   //lint:allow shardcheck all shard locks held (index-order loop above)
		snap.DispatchedStreams += sh.dispatched //lint:allow shardcheck all shard locks held (index-order loop above)
		snap.CandidateQueue += len(sh.candidates)
		localDispatched += sh.dispatched //lint:allow shardcheck all shard locks held (index-order loop above)
		localMem += sh.memUsed           //lint:allow shardcheck all shard locks held (index-order loop above)
	}
	snap.Stats.MemoryInUse = s.memUsed.Load()
	snap.Stats.PeakMemory = s.peakMem.Load()
	snap.Stats.LiveBuffers = s.bufCount.Load()
	snap.Stats.DisksDegraded = s.degraded.Load()
	snap.Stats.SLOOnTime, snap.Stats.SLOLate, snap.Stats.SLOMissed = s.sloLedger.Totals()
	if invariants.Enabled {
		// The only place all locks are held together: the shard-local
		// accounting must sum to the global atomics.
		invariants.Check(int64(localDispatched) == s.dispatched.Load(),
			"shards hold %d dispatch slots but the global counter says %d", localDispatched, s.dispatched.Load())
		invariants.Check(localMem == s.memUsed.Load(),
			"shards stage %d bytes but the global budget says %d", localMem, s.memUsed.Load())
	}
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
	return snap
}

// Close stops the garbage collectors. In-flight requests still
// complete; new submissions are rejected. Buffered span-log entries
// are flushed to the log's sink so shutdown loses no lifecycle events.
func (s *Server) Close() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		if !sh.closed {
			sh.closed = true
			if sh.gcCancel != nil {
				sh.gcCancel()
			}
		}
		sh.mu.Unlock()
	}
	if s.cfg.Obs != nil {
		_ = s.cfg.Obs.Spans().Flush()
	}
}

// Submit routes one client request (Figure 9) to its disk's shard:
// buffered set first, then the stream queues, then the classifier,
// and otherwise the direct path to the disks.
func (s *Server) Submit(req Request) error {
	if err := blockdev.CheckRequest(s.dev, req.Disk, req.Offset, req.Length); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return s.shardFor(req.Disk).submit(req)
}

// --- global budget accounting -------------------------------------
//
// The memory bound M and dispatch bound D are properties of the whole
// node, not of one shard, so they live in atomics. Reservations are
// compare-and-swap loops that never overshoot the bound; releases
// wake shards that flagged themselves blocked.

// memWouldFit is the advisory admission gate: it reports whether n
// more staged bytes currently fit under M. A later memReserve may
// still fail if another shard reserves first.
func (s *Server) memWouldFit(n int64) bool {
	return s.memUsed.Load()+n <= s.cfg.Memory
}

// memReserve claims n staged bytes against M, updating the peak
// high-water mark. It reports false — claiming nothing — when the
// reservation would exceed the budget.
func (s *Server) memReserve(n int64) bool {
	for {
		cur := s.memUsed.Load()
		if cur+n > s.cfg.Memory {
			return false
		}
		if !s.memUsed.CompareAndSwap(cur, cur+n) {
			continue
		}
		next := cur + n
		for {
			peak := s.peakMem.Load()
			if next <= peak || s.peakMem.CompareAndSwap(peak, next) {
				break
			}
		}
		return true
	}
}

// memRelease returns n staged bytes to the budget and wakes blocked
// shards.
func (s *Server) memRelease(n int64) {
	s.memUsed.Add(-n)
	s.scheduleRepump()
}

// slotAcquire claims one dispatch slot against D, reporting false
// when the set is full.
func (s *Server) slotAcquire() bool {
	for {
		cur := s.dispatched.Load()
		if cur >= int64(s.cfg.DispatchSize) {
			return false
		}
		if s.dispatched.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// slotRelease returns one dispatch slot and wakes blocked shards.
func (s *Server) slotRelease() {
	s.dispatched.Add(-1)
	s.scheduleRepump()
}

// scheduleRepump arms one off-lock pass over the shards that flagged
// themselves blocked on a global budget. Safe to call under a shard
// lock (the pass runs through the clock, never inline).
func (s *Server) scheduleRepump() {
	if s.blocked.Load() == 0 {
		return
	}
	if !s.repumpArmed.CompareAndSwap(false, true) {
		return
	}
	s.clock.Schedule(0, s.repumpFn)
}

// repumpPass pumps every blocked shard, holding one shard lock at a
// time. When a shard is still starved for memory and holds no local
// eviction victim, an LRU victim is reclaimed from whichever shard
// has one (the cross-shard face of §4.3 pressure eviction) and
// another pass is scheduled.
func (s *Server) repumpPass() {
	s.repumpArmed.Store(false)
	for _, sh := range s.shards {
		if !sh.clearBlocked() {
			continue
		}
		sh.mu.Lock()
		if !sh.closed {
			sh.pump()
		}
		sh.unlockAndFlush()
		if sh.wantPump.Load() && !s.memWouldFit(s.cfg.ReadAhead) {
			if s.evictGlobal() {
				s.scheduleRepump()
			}
		}
	}
}

// evictGlobal frees the least-recently-active evictable staged buffer
// across all shards, holding one shard lock at a time: a scan pass
// records each shard's local LRU victim, then the global victim's
// shard re-finds and frees it (tolerating races by re-checking). It
// reports whether anything was freed.
func (s *Server) evictGlobal() bool {
	victimShard := -1
	var victimAge time.Duration
	for i, sh := range s.shards {
		sh.mu.Lock()
		_, b := sh.findEvictVictim()
		sh.mu.Unlock()
		if b == nil {
			continue
		}
		if victimShard < 0 || b.lastActive < victimAge {
			victimShard, victimAge = i, b.lastActive
		}
	}
	if victimShard < 0 {
		return false
	}
	sh := s.shards[victimShard]
	sh.mu.Lock()
	freed := sh.evictIdleBuffer()
	sh.unlockAndFlush()
	return freed
}

// noteDegradedTransition adjusts the global degraded-disk count when a
// breaker opens (+1) or leaves the open state (-1), and wakes blocked
// shards: a recovering disk raises every shard's fair share.
func (s *Server) noteDegradedTransition(delta int64) {
	s.degraded.Add(delta)
	if delta < 0 {
		s.scheduleRepump()
	}
}
