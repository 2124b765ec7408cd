// Package slo is the storage node's service-level-objective engine:
// every admitted stream carries a deadline model derived from its
// classified rate (the paper's R), every delivery is scored
// on-time/late/missed on the shard completion path, and the scores
// feed per-stream/per-disk/node SLIs plus SRE-style multi-window
// burn-rate alerts.
//
// The scoring path is built to sit beside the scheduler's other hot-
// path telemetry: Score is allocation-free and, in the steady state,
// atomic-free — scores accumulate in a per-disk pending batch of plain
// fields and publish in bulk (see diskLedger). The batch relies on the
// scheduler's own serialization: Score, ScoreError, Retire, and Flush
// for one disk must run under that disk's shard lock; calls for
// different disks are independent. Readers — burn-rate evaluation,
// report building, totals — take no part in that lock and see the
// published state, at most one batch behind. Only stream admission/
// retirement and alert-edge bookkeeping take the ledger mutex.
//
// Lateness, not latency, is what the windows hold: an on-time delivery
// observes zero, a violating delivery observes how far past its
// deadline it landed. Bucket 0 of the power-of-two histogram therefore
// counts the window's on-time deliveries, which is exactly the good/
// total split a burn rate needs — the same obs.WindowedHistogram
// machinery the health engine already runs, reused unchanged.
package slo

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seqstream/internal/obs"
)

// SchemaVersion stamps the JSON report format (bundles embed reports,
// so offline tooling checks it).
const SchemaVersion = 1

// Defaults for Config zero fields.
const (
	// DefaultLateFactor: a delivery later than LateFactor times its
	// deadline counts missed, not merely late.
	DefaultLateFactor = 4.0
	// DefaultObjective is the on-time delivery objective (three nines).
	DefaultObjective = 0.999
	// DefaultFastWindow/DefaultMidWindow/DefaultSlowWindow are the
	// SRE-style multi-window burn-rate horizons: the fast (paging)
	// alert requires both the 5m and 1h windows to burn, the slow
	// (ticket) alert watches the 6h window alone.
	DefaultFastWindow = 5 * time.Minute
	DefaultMidWindow  = time.Hour
	DefaultSlowWindow = 6 * time.Hour
	// DefaultFastBurn is the burn-rate threshold for the fast alert:
	// 14.4x spends a 30-day error budget in 2 days.
	DefaultFastBurn = 14.4
	// DefaultSlowBurn is the burn-rate threshold for the slow alert:
	// 6x spends a 30-day budget in 5 days.
	DefaultSlowBurn = 6.0
	// DefaultMinSamples is how many deliveries a window must hold
	// before its burn rate can trip an alert.
	DefaultMinSamples = 32
	// DefaultTopStreams bounds the worst-stream list in reports.
	DefaultTopStreams = 8
	// diskMinSamples is how many deliveries a disk's fast window must
	// hold before the disk can be ranked for attribution.
	diskMinSamples = 8
)

// Config parameterizes a Ledger.
type Config struct {
	// Target is the base delivery deadline: a request of R bytes (one
	// read-ahead) is due Target after submission, shorter requests
	// proportionally sooner — see Deadline. Required.
	Target time.Duration
	// ReadAhead is the stream rate R the deadline scales against; a
	// non-positive value drops the length term (deadline = Target).
	ReadAhead int64
	// LateFactor marks the late/missed boundary (default
	// DefaultLateFactor).
	LateFactor float64
	// Objective is the on-time delivery objective in (0, 1) (default
	// DefaultObjective).
	Objective float64
	// FastWindow/MidWindow/SlowWindow are the burn-rate horizons
	// (defaults DefaultFastWindow/DefaultMidWindow/DefaultSlowWindow).
	FastWindow time.Duration
	MidWindow  time.Duration
	SlowWindow time.Duration
	// FastBurn/SlowBurn are the alert thresholds (defaults
	// DefaultFastBurn/DefaultSlowBurn).
	FastBurn float64
	SlowBurn float64
	// MinSamples gates alerting on window population (default
	// DefaultMinSamples).
	MinSamples int64
	// TopStreams bounds the worst-stream list in reports (default
	// DefaultTopStreams).
	TopStreams int
}

// ApplyDefaults fills zero fields.
func (c *Config) ApplyDefaults() {
	if c.LateFactor == 0 {
		c.LateFactor = DefaultLateFactor
	}
	if c.Objective == 0 {
		c.Objective = DefaultObjective
	}
	if c.FastWindow == 0 {
		c.FastWindow = DefaultFastWindow
	}
	if c.MidWindow == 0 {
		c.MidWindow = DefaultMidWindow
	}
	if c.SlowWindow == 0 {
		c.SlowWindow = DefaultSlowWindow
	}
	if c.FastBurn == 0 {
		c.FastBurn = DefaultFastBurn
	}
	if c.SlowBurn == 0 {
		c.SlowBurn = DefaultSlowBurn
	}
	if c.MinSamples == 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.TopStreams == 0 {
		c.TopStreams = DefaultTopStreams
	}
}

// Validate reports configuration errors (call ApplyDefaults first).
func (c Config) Validate() error {
	switch {
	case c.Target <= 0:
		return errors.New("slo: target deadline must be positive")
	case c.LateFactor < 1:
		return errors.New("slo: late factor must be >= 1")
	case c.Objective <= 0 || c.Objective >= 1:
		return errors.New("slo: objective must be in (0, 1)")
	case c.FastWindow <= 0 || c.MidWindow <= 0 || c.SlowWindow <= 0:
		return errors.New("slo: burn-rate windows must be positive")
	case c.FastBurn <= 0 || c.SlowBurn <= 0:
		return errors.New("slo: burn thresholds must be positive")
	case c.MinSamples < 1:
		return errors.New("slo: min samples must be >= 1")
	case c.TopStreams < 1:
		return errors.New("slo: top streams must be >= 1")
	}
	return nil
}

// Verdict classifies one delivery against its deadline.
type Verdict uint8

// Verdicts, in increasing severity.
const (
	OnTime Verdict = iota
	Late
	Missed
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case OnTime:
		return "on_time"
	case Late:
		return "late"
	case Missed:
		return "missed"
	default:
		return "verdict?"
	}
}

// sloFlushEvery is how many pending on-time deliveries a disk batches
// before publishing them. The batch keeps the hot path to plain
// increments (no atomics, no window observes) and amortizes the flush
// — three window feeds plus the counter publishes — down to fractions
// of a nanosecond per delivery. Violations always flush immediately,
// so staleness only ever hides healthy traffic from the windows, never
// an incident.
const sloFlushEvery = 128

// StreamLedger is one admitted stream's SLO state: published atomics
// the report path reads lock-free, plus a pending batch the owning
// shard accumulates under its own lock (see diskLedger for the
// serialization contract).
type StreamLedger struct {
	id         int32
	disk       int
	admittedAt time.Duration

	onTime    atomic.Int64
	late      atomic.Int64
	missed    atomic.Int64
	hits      atomic.Int64
	worstLate atomic.Int64 // nanoseconds

	// Pending batch: plain fields owned by the disk's scheduler shard,
	// published by diskLedger flushes. Never read outside a flush.
	pendOnTime int64
	pendLate   int64
	pendMissed int64
	pendHits   int64
	pendWorst  int64
	pendDirty  bool
}

// diskLedger is one disk's scoring shard: published counters and
// fast/mid/slow lateness windows, plus a pending batch of unpublished
// scores. Scheduler shards own disks exclusively (disk→shard is a
// static mapping and all stream work runs under the shard lock), so
// the batch needs no synchronization of its own: Score/ScoreError/
// Retire for one disk are serialized by that lock, and only they touch
// the pending fields. Readers (Evaluate, Report, Totals) see the
// published atomics and windows, at most one batch behind.
//
// The batch is what keeps scoring inside the 1% overhead budget: a
// first cut booked every delivery straight into counters and three
// shared windows, and the per-delivery atomics plus clock reads cost
// >20% of request throughput at bench scale.
type diskLedger struct {
	onTime atomic.Int64
	late   atomic.Int64
	missed atomic.Int64
	hits   atomic.Int64

	fast *obs.WindowedHistogram
	mid  *obs.WindowedHistogram
	slow *obs.WindowedHistogram

	// Pending batch, owned by the disk's scheduler shard.
	pendOnTime   int64
	pendLate     int64
	pendMissed   int64
	pendHits     int64
	pendViolLate int64 // last unpublished violation's lateness (at most one)
	dirty        []*StreamLedger
}

// Ledger is the node's SLO engine. Build one per core server with
// NewLedger; every accessor is safe on a nil receiver so call sites
// stay unconditional.
type Ledger struct {
	cfg Config
	now func() time.Duration

	// Deadline model, precomputed to integer math for the hot path:
	// deadline(L) = base/2 + (base/2)*L/ra nanoseconds (floored at
	// base/2, capped at base), missed when lat*1024 > deadline*lateX1024.
	// The division by ra is replaced with a fixed-point reciprocal
	// multiply (raScale, raShift) — a 64-bit divide per delivery is
	// real money on this path.
	base      int64
	baseHalf  int64
	ra        int64
	raScale   int64
	lateX1024 int64

	// disks are the per-disk scoring shards; each is its own heap
	// allocation so neighboring disks do not share cachelines.
	disks []*diskLedger

	mu       sync.Mutex
	streams  map[int32]*StreamLedger //lint:guardedby mu
	admitted int64                   //lint:guardedby mu
	retired  int64                   //lint:guardedby mu
	fastOn   bool                    //lint:guardedby mu
	slowOn   bool                    //lint:guardedby mu
}

// NewLedger builds a ledger for a node with the given disk count. now
// must be the node's monotonic clock (a simulation clock or a real
// clock's Now), shared with the windows so virtual-time runs evaluate
// deterministically.
func NewLedger(cfg Config, now func() time.Duration, disks int) (*Ledger, error) {
	if now == nil {
		return nil, errors.New("slo: nil clock")
	}
	if disks <= 0 {
		return nil, errors.New("slo: disk count must be positive")
	}
	cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &Ledger{
		cfg:       cfg,
		now:       now,
		base:      int64(cfg.Target),
		baseHalf:  int64(cfg.Target) / 2,
		ra:        cfg.ReadAhead,
		lateX1024: int64(cfg.LateFactor * 1024),
		streams:   make(map[int32]*StreamLedger),
	}
	if l.ra > 0 && l.baseHalf < 1<<(62-raShift) {
		// Targets big enough to overflow the fixed-point product (about
		// an hour) keep the exact-division fallback in deadlineNs.
		l.raScale = (l.baseHalf << raShift) / l.ra
	}
	l.disks = make([]*diskLedger, disks)
	for i := range l.disks {
		// The dirty list is preallocated so steady-state scoring stays
		// allocation-free; it grows only when a disk serves more
		// concurrent streams than the cap between two flushes.
		dl := &diskLedger{dirty: make([]*StreamLedger, 0, 16)}
		var err error
		if dl.fast, err = obs.NewWindowedHistogram(now, cfg.FastWindow, obs.DefaultWindowBuckets); err != nil {
			return nil, err
		}
		if dl.mid, err = obs.NewWindowedHistogram(now, cfg.MidWindow, obs.DefaultWindowBuckets); err != nil {
			return nil, err
		}
		if dl.slow, err = obs.NewWindowedHistogram(now, cfg.SlowWindow, obs.DefaultWindowBuckets); err != nil {
			return nil, err
		}
		l.disks[i] = dl
	}
	return l, nil
}

// raShift is the fixed-point precision of the deadline model's
// reciprocal multiply: deadlines are exact to within length/2^20 ns of
// the true division, far below any deadline anyone configures.
const raShift = 20

// deadlineNs is the hot-path deadline model: a request of ReadAhead
// bytes is due base ns after submission, shorter requests sooner in
// proportion — the client consuming at its classified rate R drains
// one read-ahead per Target, so each L-byte slice of it is due within
// the slice's share. A floor of base/2 keeps tiny requests from
// getting microsecond deadlines no real client expects.
func (l *Ledger) deadlineNs(length int64) int64 {
	if l.ra <= 0 || length >= l.ra {
		return l.base
	}
	if l.raScale > 0 {
		return l.baseHalf + (length*l.raScale)>>raShift
	}
	return l.baseHalf + l.baseHalf*length/l.ra
}

// Deadline returns the delivery deadline for a request of the given
// length. Zero on a nil ledger.
func (l *Ledger) Deadline(length int64) time.Duration {
	if l == nil {
		return 0
	}
	return time.Duration(l.deadlineNs(length))
}

// Score classifies one successful delivery against its deadline and
// books it on the stream (nil-safe) and disk ledgers plus the lateness
// windows. It is allocation-free and batch-cheap — the shard calls it
// on the buffer-hit path, under the shard lock that serializes the
// disk (see the package comment). The returned lateness is zero for
// on-time deliveries.
func (l *Ledger) Score(st *StreamLedger, disk int, length int64, lat time.Duration, fromBuffer bool) (Verdict, time.Duration) {
	if l == nil {
		return OnTime, 0
	}
	d := l.deadlineNs(length)
	lateNs := int64(lat) - d
	if lateNs <= 0 {
		l.bookOnTime(st, disk, fromBuffer)
		return OnTime, 0
	}
	v := Late
	if int64(lat)*1024 > d*l.lateX1024 {
		v = Missed
	}
	if lateNs < 2 {
		// Bucket 0 of the lateness histograms means "on time"; clamp a
		// sub-2ns violation out of it so window ratios stay exact.
		lateNs = 2
	}
	l.book(st, disk, v, lateNs, fromBuffer)
	return v, time.Duration(lateNs)
}

// ScoreError books a failed delivery: an errored request can never
// meet its objective, so it scores as missed regardless of how fast
// the failure arrived. Returns the lateness observed into the windows.
func (l *Ledger) ScoreError(st *StreamLedger, disk int, length int64, lat time.Duration) time.Duration {
	if l == nil {
		return 0
	}
	lateNs := int64(lat) - l.deadlineNs(length)
	if lateNs < 2 {
		lateNs = 2
	}
	l.book(st, disk, Missed, lateNs, false)
	return time.Duration(lateNs)
}

// bookOnTime accumulates one on-time delivery — the overwhelmingly
// common case — into the owning disk's pending batch: a handful of
// plain increments, no atomics, no window observes, no verdict
// branching. Those are paid once per sloFlushEvery deliveries.
func (l *Ledger) bookOnTime(st *StreamLedger, disk int, fromBuffer bool) {
	if uint(disk) >= uint(len(l.disks)) {
		// Unattributable delivery (should not happen): book it on disk 0
		// rather than lose it from the node SLIs.
		disk = 0
	}
	dc := l.disks[disk]
	if st != nil {
		if !st.pendDirty {
			st.pendDirty = true
			dc.dirty = append(dc.dirty, st)
		}
		st.pendOnTime++
		if fromBuffer {
			st.pendHits++
		}
	}
	dc.pendOnTime++
	if fromBuffer {
		dc.pendHits++
	}
	if dc.pendOnTime >= sloFlushEvery {
		l.flushDisk(dc)
	}
}

// book accumulates one violating delivery into the owning disk's
// pending batch and flushes it immediately: violations are rare by
// construction (the objective is three nines) and the burn windows
// must see them promptly.
func (l *Ledger) book(st *StreamLedger, disk int, v Verdict, lateNs int64, fromBuffer bool) {
	if uint(disk) >= uint(len(l.disks)) {
		disk = 0
	}
	dc := l.disks[disk]
	if st != nil {
		if !st.pendDirty {
			st.pendDirty = true
			dc.dirty = append(dc.dirty, st)
		}
		if v == Late {
			st.pendLate++
		} else {
			st.pendMissed++
		}
		if fromBuffer {
			st.pendHits++
		}
		if lateNs > st.pendWorst {
			st.pendWorst = lateNs
		}
	}
	if v == Late {
		dc.pendLate++
	} else {
		dc.pendMissed++
	}
	if fromBuffer {
		dc.pendHits++
	}
	dc.pendViolLate = lateNs
	l.flushDisk(dc)
}

// flushDisk publishes a disk's pending batch: counters to the atomics,
// on-time zeros and the violation's lateness to the windows, dirty
// streams to their atomics. Caller owns the disk's serialization (the
// scheduler shard lock).
func (l *Ledger) flushDisk(dc *diskLedger) {
	if n := dc.pendOnTime; n > 0 {
		dc.onTime.Add(n)
		dc.fast.ObserveN(0, n)
		dc.mid.ObserveN(0, n)
		dc.slow.ObserveN(0, n)
		dc.pendOnTime = 0
	}
	if n := dc.pendLate; n > 0 {
		dc.late.Add(n)
		dc.pendLate = 0
	}
	if n := dc.pendMissed; n > 0 {
		dc.missed.Add(n)
		dc.pendMissed = 0
	}
	if n := dc.pendHits; n > 0 {
		dc.hits.Add(n)
		dc.pendHits = 0
	}
	if lateNs := dc.pendViolLate; lateNs > 0 {
		// At most one violation is ever pending (violations flush the
		// batch), so its exact lateness reaches the windows.
		late := time.Duration(lateNs)
		dc.fast.Observe(late)
		dc.mid.Observe(late)
		dc.slow.Observe(late)
		dc.pendViolLate = 0
	}
	for i, st := range dc.dirty {
		if n := st.pendOnTime; n > 0 {
			st.onTime.Add(n)
			st.pendOnTime = 0
		}
		if n := st.pendLate; n > 0 {
			st.late.Add(n)
			st.pendLate = 0
		}
		if n := st.pendMissed; n > 0 {
			st.missed.Add(n)
			st.pendMissed = 0
		}
		if n := st.pendHits; n > 0 {
			st.hits.Add(n)
			st.pendHits = 0
		}
		if w := st.pendWorst; w > 0 {
			st.pendWorst = 0
			// Single writer (the disk's shard), so load-then-store is
			// race-free; readers just need the atomic visibility.
			if w > st.worstLate.Load() {
				st.worstLate.Store(w)
			}
		}
		st.pendDirty = false
		dc.dirty[i] = nil
	}
	dc.dirty = dc.dirty[:0]
}

// Flush publishes one disk's pending batch. The caller must own the
// disk's serialization — the scheduler calls it per shard while it
// already holds the shard lock (stats snapshots), which is how cold
// readers see exact totals at run boundaries. Nil-safe.
func (l *Ledger) Flush(disk int) {
	if l == nil || disk < 0 || disk >= len(l.disks) {
		return
	}
	l.flushDisk(l.disks[disk])
}

// Admit registers a newly classified stream and returns its ledger
// entry for the shard to stamp on the stream. Nil on a nil ledger.
func (l *Ledger) Admit(id int32, disk int, now time.Duration) *StreamLedger {
	if l == nil {
		return nil
	}
	st := &StreamLedger{id: id, disk: disk, admittedAt: now}
	l.mu.Lock()
	l.streams[id] = st
	l.admitted++
	l.mu.Unlock()
	return st
}

// Retire removes a stream's ledger entry when the stream retires,
// rotates out for good, or is garbage-collected. Its cumulative scores
// stay in the node and disk totals. The caller must own the stream's
// disk serialization, like Score: retirement publishes the disk's
// pending batch so the stream's last scores cannot go dark with it.
// Safe on nil ledger or entry.
func (l *Ledger) Retire(st *StreamLedger) {
	if l == nil || st == nil {
		return
	}
	if st.disk >= 0 && st.disk < len(l.disks) {
		l.flushDisk(l.disks[st.disk])
	}
	l.mu.Lock()
	if _, ok := l.streams[st.id]; ok {
		delete(l.streams, st.id)
		l.retired++
	}
	l.mu.Unlock()
}

// FastSnapshot merges the per-disk fast lateness windows into one
// node-wide snapshot, for metric exposition (bucket 0 holds the
// window's on-time deliveries). Zero on a nil ledger.
func (l *Ledger) FastSnapshot() obs.HistogramSnapshot {
	var s obs.HistogramSnapshot
	if l == nil {
		return s
	}
	for _, dl := range l.disks {
		mergeSnapshot(&s, dl.fast.Snapshot())
	}
	return s
}

// mergeSnapshot folds src into dst. Per-disk snapshots are taken at
// slightly different instants, so the merge inherits the windows'
// approximate contract.
func mergeSnapshot(dst *obs.HistogramSnapshot, src obs.HistogramSnapshot) {
	dst.Count += src.Count
	dst.Sum += src.Sum
	for i := range src.Buckets {
		dst.Buckets[i] += src.Buckets[i]
	}
}

// Totals returns the node's cumulative (onTime, late, missed) scores,
// summed across the per-disk shards.
func (l *Ledger) Totals() (onTime, late, missed int64) {
	if l == nil {
		return 0, 0, 0
	}
	for _, dl := range l.disks {
		onTime += dl.onTime.Load()
		late += dl.late.Load()
		missed += dl.missed.Load()
	}
	return onTime, late, missed
}

// WindowStatus summarizes one burn-rate window.
type WindowStatus struct {
	Span        time.Duration `json:"span_ns"`
	Total       int64         `json:"total"`
	Violations  int64         `json:"violations"`
	BadRatio    float64       `json:"bad_ratio"`
	Burn        float64       `json:"burn_rate"`
	P99Lateness time.Duration `json:"p99_lateness_ns"`
}

// Alert is one burn-rate alert activation.
type Alert struct {
	// Severity is "fast" (page: the 5m and 1h windows both burn past
	// FastBurn) or "slow" (ticket: the 6h window burns past SlowBurn).
	Severity string  `json:"severity"`
	Burn     float64 `json:"burn_rate"`
	Detail   string  `json:"detail"`
}

// Status is one burn-rate evaluation.
type Status struct {
	At         time.Duration `json:"at_ns"`
	Objective  float64       `json:"objective"`
	Fast       WindowStatus  `json:"fast"`
	Mid        WindowStatus  `json:"mid"`
	Slow       WindowStatus  `json:"slow"`
	FastActive bool          `json:"fast_active"`
	SlowActive bool          `json:"slow_active"`
	// Tripped lists alerts that activated since the previous Evaluate
	// (empty on Report's read-only evaluations).
	Tripped []Alert `json:"tripped,omitempty"`
	// WorstDisk attributes the burn: the disk whose fast window holds
	// the highest violation ratio (-1 when no disk qualifies).
	WorstDisk         int     `json:"worst_disk"`
	WorstDiskBadRatio float64 `json:"worst_disk_bad_ratio,omitempty"`
}

// windowStatus reduces one horizon's per-disk lateness windows into a
// node-wide status: the snapshots merge (each disk is only written by
// its own shard, so the node view exists only here), then bucket 0
// holds the on-time deliveries (they observe zero lateness) and
// everything above it is a violation.
func (l *Ledger) windowStatus(span time.Duration, pick func(*diskLedger) *obs.WindowedHistogram) WindowStatus {
	// Tally, not Snapshot: evaluation runs every engine tick across
	// three horizons and every disk, and copying full bucket arrays
	// there eats into the same CPU budget the scoring batches protect.
	var total, good int64
	for _, dl := range l.disks {
		c, z := pick(dl).Tally()
		total += c
		good += z
	}
	ws := WindowStatus{Span: span, Total: total}
	if total == 0 {
		return ws
	}
	ws.Violations = total - good
	if ws.Violations < 0 {
		// Racy tally: totals can momentarily lead the bucket sum.
		ws.Violations = 0
	}
	ws.BadRatio = float64(ws.Violations) / float64(total)
	ws.Burn = ws.BadRatio / (1 - l.cfg.Objective)
	if ws.Violations > 0 {
		// Lateness quantiles need the full buckets; pay for the merge
		// only when there is lateness to rank (incidents, not steady
		// state).
		var snap obs.HistogramSnapshot
		for _, dl := range l.disks {
			mergeSnapshot(&snap, pick(dl).Snapshot())
		}
		ws.P99Lateness = snap.Quantile(0.99)
	}
	return ws
}

// worstDisk ranks the per-disk fast windows by violation ratio.
func (l *Ledger) worstDisk() (int, float64) {
	worst, ratio := -1, 0.0
	for d, dl := range l.disks {
		c, z := dl.fast.Tally()
		if c < diskMinSamples {
			continue
		}
		bad := c - z
		if bad <= 0 {
			continue
		}
		r := float64(bad) / float64(c)
		if worst < 0 || r > ratio {
			worst, ratio = d, r
		}
	}
	return worst, ratio
}

// Evaluate computes the burn-rate status and records alert-state
// transitions: Status.Tripped carries the alerts that activated since
// the previous Evaluate, which is the edge the health engine captures
// blackbox bundles on. Call it from one evaluator (the health tick);
// concurrent calls are safe but split the transition edges between
// them. Zero on a nil ledger.
func (l *Ledger) Evaluate() Status {
	if l == nil {
		return Status{WorstDisk: -1}
	}
	st := l.status()
	l.mu.Lock()
	if st.FastActive && !l.fastOn {
		st.Tripped = append(st.Tripped, Alert{
			Severity: "fast",
			Burn:     st.Fast.Burn,
			Detail: fmt.Sprintf("fast burn-rate alert: %.1fx over %v and %.1fx over %v (threshold %.1fx, objective %.4f)",
				st.Fast.Burn, l.cfg.FastWindow, st.Mid.Burn, l.cfg.MidWindow, l.cfg.FastBurn, l.cfg.Objective),
		})
	}
	if st.SlowActive && !l.slowOn {
		st.Tripped = append(st.Tripped, Alert{
			Severity: "slow",
			Burn:     st.Slow.Burn,
			Detail: fmt.Sprintf("slow burn-rate alert: %.1fx over %v (threshold %.1fx, objective %.4f)",
				st.Slow.Burn, l.cfg.SlowWindow, l.cfg.SlowBurn, l.cfg.Objective),
		})
	}
	l.fastOn, l.slowOn = st.FastActive, st.SlowActive
	l.mu.Unlock()
	return st
}

// status computes the current Status without touching alert state.
func (l *Ledger) status() Status {
	st := Status{
		At:        l.now(),
		Objective: l.cfg.Objective,
		Fast:      l.windowStatus(l.cfg.FastWindow, func(dl *diskLedger) *obs.WindowedHistogram { return dl.fast }),
		Mid:       l.windowStatus(l.cfg.MidWindow, func(dl *diskLedger) *obs.WindowedHistogram { return dl.mid }),
		Slow:      l.windowStatus(l.cfg.SlowWindow, func(dl *diskLedger) *obs.WindowedHistogram { return dl.slow }),
	}
	st.FastActive = st.Fast.Total >= l.cfg.MinSamples &&
		st.Fast.Burn >= l.cfg.FastBurn && st.Mid.Burn >= l.cfg.FastBurn
	st.SlowActive = st.Slow.Total >= l.cfg.MinSamples && st.Slow.Burn >= l.cfg.SlowBurn
	st.WorstDisk, st.WorstDiskBadRatio = l.worstDisk()
	return st
}

// SLI is one scope's cumulative service-level indicators.
type SLI struct {
	OnTime         int64   `json:"on_time"`
	Late           int64   `json:"late"`
	Missed         int64   `json:"missed"`
	Total          int64   `json:"total"`
	OnTimeRatio    float64 `json:"on_time_ratio"`
	BufferHits     int64   `json:"buffer_hits"`
	BufferHitRatio float64 `json:"buffer_hit_ratio"`
}

func makeSLI(onTime, late, missed, hits int64) SLI {
	s := SLI{OnTime: onTime, Late: late, Missed: missed, BufferHits: hits}
	s.Total = onTime + late + missed
	if s.Total > 0 {
		s.OnTimeRatio = float64(onTime) / float64(s.Total)
		s.BufferHitRatio = float64(hits) / float64(s.Total)
	}
	return s
}

// DiskSLI is one disk's rollup.
type DiskSLI struct {
	Disk int `json:"disk"`
	SLI
	// Window fields cover only the fast window, for attribution.
	WindowTotal      int64   `json:"window_total"`
	WindowViolations int64   `json:"window_violations"`
	WindowBadRatio   float64 `json:"window_bad_ratio"`
}

// StreamSLI is one live stream's rollup.
type StreamSLI struct {
	Stream int32 `json:"stream"`
	Disk   int   `json:"disk"`
	SLI
	WorstLateness time.Duration `json:"worst_lateness_ns"`
	AdmittedAt    time.Duration `json:"admitted_at_ns"`
}

// Report is the ledger's full JSON rollup, served inside /debug/health
// and embedded in blackbox bundles.
type Report struct {
	SchemaVersion int           `json:"schema_version"`
	At            time.Duration `json:"at_ns"`
	Target        time.Duration `json:"target_ns"`
	Objective     float64       `json:"objective"`
	Node          SLI           `json:"node"`
	Burn          Status        `json:"burn"`
	Disks         []DiskSLI     `json:"disks,omitempty"`
	// Streams lists the worst live streams by (missed, late, worst
	// lateness), bounded by Config.TopStreams.
	Streams     []StreamSLI `json:"streams,omitempty"`
	LiveStreams int         `json:"live_streams"`
	Admitted    int64       `json:"admitted"`
	Retired     int64       `json:"retired"`
}

// Report builds the rollup. It never mutates alert state, so scraping
// /debug/health cannot swallow a burn-rate trip the engine has not
// seen yet. Nil on a nil ledger.
func (l *Ledger) Report() *Report {
	if l == nil {
		return nil
	}
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Target:        l.cfg.Target,
		Objective:     l.cfg.Objective,
		Burn:          l.status(),
	}
	rep.At = rep.Burn.At
	var nodeOnTime, nodeLate, nodeMissed, nodeHits int64
	for d, dc := range l.disks {
		onTime, late, missed, hits := dc.onTime.Load(), dc.late.Load(), dc.missed.Load(), dc.hits.Load()
		nodeOnTime += onTime
		nodeLate += late
		nodeMissed += missed
		nodeHits += hits
		s := makeSLI(onTime, late, missed, hits)
		if s.Total == 0 {
			continue
		}
		ds := DiskSLI{Disk: d, SLI: s}
		wc, wz := dc.fast.Tally()
		ds.WindowTotal = wc
		ds.WindowViolations = wc - wz
		if ds.WindowViolations < 0 {
			ds.WindowViolations = 0
		}
		if wc > 0 {
			ds.WindowBadRatio = float64(ds.WindowViolations) / float64(wc)
		}
		rep.Disks = append(rep.Disks, ds)
	}
	rep.Node = makeSLI(nodeOnTime, nodeLate, nodeMissed, nodeHits)

	l.mu.Lock()
	rep.LiveStreams = len(l.streams)
	rep.Admitted = l.admitted
	rep.Retired = l.retired
	live := make([]*StreamLedger, 0, len(l.streams))
	for _, st := range l.streams {
		live = append(live, st)
	}
	l.mu.Unlock()

	sort.Slice(live, func(i, j int) bool {
		a, b := live[i], live[j]
		am, bm := a.missed.Load(), b.missed.Load()
		if am != bm {
			return am > bm
		}
		al, bl := a.late.Load(), b.late.Load()
		if al != bl {
			return al > bl
		}
		aw, bw := a.worstLate.Load(), b.worstLate.Load()
		if aw != bw {
			return aw > bw
		}
		return a.id < b.id
	})
	if len(live) > l.cfg.TopStreams {
		live = live[:l.cfg.TopStreams]
	}
	for _, st := range live {
		rep.Streams = append(rep.Streams, StreamSLI{
			Stream:        st.id,
			Disk:          st.disk,
			SLI:           makeSLI(st.onTime.Load(), st.late.Load(), st.missed.Load(), st.hits.Load()),
			WorstLateness: time.Duration(st.worstLate.Load()),
			AdmittedAt:    st.admittedAt,
		})
	}
	return rep
}
