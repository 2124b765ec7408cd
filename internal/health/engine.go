package health

import (
	"errors"
	"sort"
	"sync"
	"time"

	"fmt"

	"seqstream/internal/blockdev"
	"seqstream/internal/core"
	"seqstream/internal/flight"
	"seqstream/internal/obs"
	"seqstream/internal/slo"
)

// Capturer receives incident triggers: the engine calls Capture once
// per newly raised anomaly and per newly tripped burn-rate alert,
// outside its own lock. The blackbox package provides the production
// implementation; the indirection keeps health free of a blackbox
// dependency (and vice versa).
type Capturer interface {
	Capture(reason string)
}

// Defaults for Config zero fields.
const (
	// DefaultInterval is how often the engine polls the flight rings.
	DefaultInterval = time.Second
	// DefaultWindow is the recency horizon for verdict inputs
	// (exemplars) when neither Config nor the core windows supply one.
	DefaultWindow = time.Minute
	// DefaultJournalCap bounds the health-event journal.
	DefaultJournalCap = 256
)

// Config parameterizes an Engine.
type Config struct {
	// Interval is the ring poll period (default DefaultInterval).
	Interval time.Duration
	// Window is the recency horizon for slow-fetch exemplars (default:
	// the core server's WindowSpan when set, else DefaultWindow).
	Window time.Duration
	// Detectors tunes the anomaly thresholds (zero fields defaulted).
	Detectors DetectorConfig
}

// Verdict is a health rollup outcome, ordered by severity.
type Verdict string

const (
	VerdictHealthy   Verdict = "healthy"
	VerdictStraggler Verdict = "straggler"
	VerdictDegraded  Verdict = "degraded"
)

// rank orders verdicts: healthy < straggler < degraded.
func (v Verdict) rank() int {
	switch v {
	case VerdictDegraded:
		return 2
	case VerdictStraggler:
		return 1
	default:
		return 0
	}
}

// worse returns the more severe of two verdicts.
func (v Verdict) worse(o Verdict) Verdict {
	if o.rank() > v.rank() {
		return o
	}
	return v
}

// JournalEntry is one health-state transition: an anomaly appearing
// ("raised") or disappearing ("cleared"), stamped on the engine clock.
type JournalEntry struct {
	At      time.Duration `json:"at_ns"`
	Change  string        `json:"change"` // "raised" or "cleared"
	Anomaly Anomaly       `json:"anomaly"`
}

// anomalyKey identifies an anomaly across ticks: the detail string
// carries evolving numbers, the (kind, stream, disk) triple does not.
type anomalyKey struct {
	kind   string
	stream int32
	disk   int
}

// exemplar links a disk's slow window to a concrete flight trace: the
// slowest traced staged/deliver/direct event seen recently.
type exemplar struct {
	trace uint64
	dur   time.Duration
	at    time.Duration
}

// Engine is the online health engine: it tails every flight ring
// through incremental cursors (no snapshot, no dump), feeds the shared
// detectors, journals anomaly transitions, and rolls windowed latency
// + breaker state + active anomalies into per-disk/per-shard/node
// verdicts. Start schedules periodic ticks on the injected clock; Tick
// may also be driven manually (tests, one-shot tools).
//
// Everything mutable sits behind mu; the hot request path is never
// touched — the engine's only coupling to the scheduler is reading
// rings the shards already write and the accessors Server exposes.
type Engine struct {
	cfg   Config
	rec   *flight.Recorder
	srv   *core.Server
	clock blockdev.Clock
	// journalCap bounds the raised/cleared journal.
	journalCap int

	mu         sync.Mutex
	det        *Detectors             //lint:guardedby mu
	cursors    []*flight.Cursor       //lint:guardedby mu
	buf        []flight.Event         //lint:guardedby mu
	active     map[anomalyKey]Anomaly //lint:guardedby mu
	journal    []JournalEntry         //lint:guardedby mu
	exemplars  map[int]exemplar       //lint:guardedby mu
	eventsSeen uint64                 //lint:guardedby mu
	armed      bool                   //lint:guardedby mu
	closed     bool                   //lint:guardedby mu
	cancel     func()                 //lint:guardedby mu
	ledger     *slo.Ledger            //lint:guardedby mu
	capturer   Capturer               //lint:guardedby mu
}

// SetSLO attaches an SLO ledger: every tick evaluates its burn rates
// (recording alert-state transitions) and Report embeds its rollup,
// with burn alerts folded into the verdicts. Call before Start.
func (e *Engine) SetSLO(l *slo.Ledger) {
	e.mu.Lock()
	e.ledger = l
	e.mu.Unlock()
}

// SetCapturer attaches an incident capturer, invoked (outside the
// engine lock) on every newly raised anomaly and newly tripped
// burn-rate alert. Call before Start.
func (e *Engine) SetCapturer(c Capturer) {
	e.mu.Lock()
	e.capturer = c
	e.mu.Unlock()
}

// NewEngine builds an engine over a recorder. srv may be nil (the
// rollup then lacks breaker state and windowed quantiles, but the
// detectors still run); rec and clock are required.
func NewEngine(rec *flight.Recorder, srv *core.Server, clock blockdev.Clock, cfg Config) (*Engine, error) {
	if rec == nil {
		return nil, errors.New("health: nil flight recorder")
	}
	if clock == nil {
		return nil, errors.New("health: nil clock")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Window <= 0 {
		if srv != nil && srv.Windows().Span() > 0 {
			cfg.Window = srv.Windows().Span()
		} else {
			cfg.Window = DefaultWindow
		}
	}
	cfg.Detectors.ApplyDefaults()
	e := &Engine{
		cfg:        cfg,
		rec:        rec,
		srv:        srv,
		clock:      clock,
		journalCap: DefaultJournalCap,
		det:        NewDetectors(cfg.Detectors),
		cursors:    make([]*flight.Cursor, rec.Rings()),
		active:     make(map[anomalyKey]Anomaly),
		exemplars:  make(map[int]exemplar),
	}
	for i := range e.cursors {
		e.cursors[i] = rec.Ring(i).NewCursor()
	}
	return e, nil
}

// Start schedules the periodic tick loop. Idempotent; a no-op after
// Close.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.armed {
		return
	}
	e.armed = true
	e.arm()
}

// arm schedules the next tick. Caller holds mu.
//
//lint:holds mu
func (e *Engine) arm() {
	e.cancel = e.clock.Schedule(e.cfg.Interval, e.tickAndRearm)
}

func (e *Engine) tickAndRearm() {
	e.Tick()
	e.mu.Lock()
	if !e.closed && e.armed {
		e.arm()
	}
	e.mu.Unlock()
}

// Close stops the tick loop. The last computed state stays readable
// through Report and Journal.
func (e *Engine) Close() {
	e.mu.Lock()
	cancel := e.cancel
	e.cancel = nil
	e.closed = true
	e.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Tick polls every ring cursor once, feeds the new events through the
// detectors in Seq order, refreshes the active-anomaly set and
// journal, and evaluates the SLO burn rates when a ledger is attached.
// Newly raised anomalies and newly tripped burn alerts fire the
// capturer — after the engine lock is released, so the capturer can
// read the engine (and the scheduler) freely. Safe to call manually at
// any time, concurrently with the scheduled loop.
func (e *Engine) Tick() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.buf = e.buf[:0]
	for _, c := range e.cursors {
		e.buf = c.Poll(e.buf)
	}
	// Rings are polled independently; restore the global merge order
	// the offline analyzer sees. (Local alias: the sort closure runs
	// entirely under mu but shardcheck cannot see into it.)
	batch := e.buf
	sort.Slice(batch, func(i, j int) bool { return batch[i].Seq < batch[j].Seq })
	now := e.clock.Now()
	for i := range e.buf {
		e.det.Observe(e.buf[i])
		e.noteExemplar(&e.buf[i], now)
	}
	e.eventsSeen += uint64(len(e.buf))
	raised := e.refreshAnomalies(now)
	var reasons []string
	for _, a := range raised {
		if a.Disk != NoDisk {
			reasons = append(reasons, fmt.Sprintf("anomaly raised: %s (disk %d): %s", a.Kind, a.Disk, a.Detail))
		} else {
			reasons = append(reasons, fmt.Sprintf("anomaly raised: %s: %s", a.Kind, a.Detail))
		}
	}
	if e.ledger != nil {
		for _, al := range e.ledger.Evaluate().Tripped {
			reasons = append(reasons, al.Detail)
		}
	}
	capturer := e.capturer
	e.mu.Unlock()
	if capturer != nil {
		for _, r := range reasons {
			capturer.Capture(r)
		}
	}
}

// noteExemplar keeps, per disk, the slowest recent traced event so a
// slow window links back to a concrete flight trace. Caller holds mu.
//
//lint:holds mu
func (e *Engine) noteExemplar(ev *flight.Event, now time.Duration) {
	if ev.Trace == 0 || ev.Dur <= 0 {
		return
	}
	switch ev.Op {
	case flight.OpStaged, flight.OpDeliver, flight.OpDirect:
	default:
		return
	}
	disk := int(ev.Disk)
	cur, ok := e.exemplars[disk]
	if !ok || ev.Dur >= cur.dur || cur.at < now-e.cfg.Window {
		e.exemplars[disk] = exemplar{trace: ev.Trace, dur: ev.Dur, at: now}
	}
}

// refreshAnomalies diffs the detectors' findings against the active
// set, journals every transition, and returns the newly raised
// anomalies (the capture triggers). Caller holds mu.
//
//lint:holds mu
func (e *Engine) refreshAnomalies(now time.Duration) []Anomaly {
	findings := e.det.Findings()
	next := make(map[anomalyKey]Anomaly, len(findings))
	var raised []Anomaly
	for _, a := range findings {
		k := anomalyKey{a.Kind, a.Stream, a.Disk}
		next[k] = a
		if _, was := e.active[k]; !was {
			e.journalAppend(JournalEntry{At: now, Change: "raised", Anomaly: a})
			raised = append(raised, a)
		}
	}
	for k, a := range e.active {
		if _, still := next[k]; !still {
			e.journalAppend(JournalEntry{At: now, Change: "cleared", Anomaly: a})
		}
	}
	e.active = next
	return raised
}

// journalAppend appends one entry, dropping the oldest past the cap.
// Caller holds mu.
//
//lint:holds mu
func (e *Engine) journalAppend(entry JournalEntry) {
	if len(e.journal) >= e.journalCap {
		n := copy(e.journal, e.journal[len(e.journal)-e.journalCap+1:])
		e.journal = e.journal[:n]
	}
	e.journal = append(e.journal, entry)
}

// WindowStats summarizes one latency window for the rollup.
type WindowStats struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// DiskReport is one disk's health rollup.
type DiskReport struct {
	Disk    int     `json:"disk"`
	Shard   int     `json:"shard"`
	Verdict Verdict `json:"verdict"`
	// Breaker is the circuit state ("closed", "open", "half-open"),
	// empty when the breaker is disabled or the disk never tripped.
	Breaker string `json:"breaker,omitempty"`
	// Fetch summarizes the disk's windowed fetch latency (zero without
	// core windows).
	Fetch WindowStats `json:"fetch_window"`
	// EWMA is the disk's smoothed fetch latency (zero without core
	// windows) — the dispatch signal the straggler-aware scheduler
	// work consumes.
	EWMA time.Duration `json:"fetch_ewma_ns"`
	// Speculations counts speculative duplicates armed against this
	// disk's slow fetch legs; SpecWins counts speculative legs this
	// disk delivered first as a replica. A straggler verdict with
	// nonzero Speculations is a disk the scheduler is already routing
	// around.
	Speculations int `json:"speculations,omitempty"`
	SpecWins     int `json:"spec_wins,omitempty"`
	// Anomalies lists the kinds of active anomalies attributed to this
	// disk.
	Anomalies []string `json:"anomalies,omitempty"`
	// SlowTrace/SlowDur are the slow-fetch exemplar: the flight trace
	// id of the slowest recent traced event on this disk.
	SlowTrace uint64        `json:"slow_trace,omitempty"`
	SlowDur   time.Duration `json:"slow_dur_ns,omitempty"`
}

// ShardReport is one scheduler shard's rollup: the worst verdict of
// the disks it owns.
type ShardReport struct {
	Shard   int     `json:"shard"`
	Verdict Verdict `json:"verdict"`
}

// Report is the full health rollup served at /debug/health.
type Report struct {
	At      time.Duration `json:"at_ns"`
	Verdict Verdict       `json:"verdict"`
	Window  time.Duration `json:"window_ns"`
	// Request/Fetch are the node-wide windowed latencies (zero without
	// core windows).
	Request    WindowStats    `json:"request_window"`
	Fetch      WindowStats    `json:"fetch_window"`
	Disks      []DiskReport   `json:"disks"`
	Shards     []ShardReport  `json:"shards"`
	Anomalies  []Anomaly      `json:"anomalies"`
	EventsSeen uint64         `json:"events_seen"`
	EventsLost uint64         `json:"events_lost"`
	Journal    []JournalEntry `json:"journal,omitempty"`
	// SLO is the SLO ledger's rollup (SLIs + burn-rate status), nil
	// when no ledger is attached. An active fast burn alert degrades
	// the node verdict; an active slow alert marks it straggler.
	SLO *slo.Report `json:"slo,omitempty"`
}

// windowStats converts a snapshot.
func windowStats(s obs.HistogramSnapshot) WindowStats {
	return WindowStats{Count: s.Count, Mean: s.Mean(), P50: s.Quantile(0.5), P99: s.Quantile(0.99)}
}

// Report computes the rollup: per-disk verdicts from breaker state and
// active anomalies, shard verdicts as the worst of their disks, the
// node verdict as the worst overall (node-wide anomalies — M pressure,
// rotation starvation — degrade the node directly). The verdict rules
// are documented in DESIGN.md §8.2.
func (e *Engine) Report() Report {
	e.mu.Lock()
	defer e.mu.Unlock()

	now := e.clock.Now()
	rep := Report{
		At:         now,
		Verdict:    VerdictHealthy,
		Window:     e.cfg.Window,
		Anomalies:  e.det.Findings(),
		EventsSeen: e.eventsSeen,
		Journal:    append([]JournalEntry(nil), e.journal...),
	}
	for _, c := range e.cursors {
		rep.EventsLost += c.Lost()
	}
	if e.ledger != nil {
		// Report (the ledger's and this one) never consumes trip edges:
		// only Tick's Evaluate does, so scraping cannot swallow a
		// capture trigger.
		rep.SLO = e.ledger.Report()
		if rep.SLO.Burn.FastActive {
			rep.Verdict = rep.Verdict.worse(VerdictDegraded)
		} else if rep.SLO.Burn.SlowActive {
			rep.Verdict = rep.Verdict.worse(VerdictStraggler)
		}
	}

	var win *core.LatencyWindows
	numShards := 1
	var disks []int
	if e.srv != nil {
		win = e.srv.Windows()
		numShards = e.srv.NumShards()
		for d := 0; d < e.srv.Disks(); d++ {
			disks = append(disks, d)
		}
	} else {
		seen := map[int]bool{}
		for d := range e.det.diskLat {
			seen[int(d)] = true
		}
		for d := range e.det.opens {
			seen[int(d)] = true
		}
		for d := range e.exemplars {
			seen[d] = true
		}
		for d := range seen {
			disks = append(disks, d)
		}
		sort.Ints(disks)
	}

	rep.Request = windowStats(win.Request())
	rep.Fetch = windowStats(win.Fetch())

	breakerOf := map[int]string{}
	if e.srv != nil {
		for _, b := range e.srv.BreakerInfos() {
			breakerOf[b.Disk] = b.State
		}
	}

	diskAnoms := map[int][]string{}
	for _, a := range rep.Anomalies {
		if a.Disk != NoDisk {
			diskAnoms[a.Disk] = append(diskAnoms[a.Disk], a.Kind)
		}
		// Node-wide anomalies (and starvation, a scheduling failure)
		// degrade the node verdict directly.
		switch a.Kind {
		case KindMPressure, KindRotationStarvation:
			rep.Verdict = rep.Verdict.worse(VerdictDegraded)
		}
	}

	shardVerdicts := make([]Verdict, numShards)
	for i := range shardVerdicts {
		shardVerdicts[i] = VerdictHealthy
	}
	for _, d := range disks {
		dr := DiskReport{
			Disk:    d,
			Shard:   d % numShards,
			Verdict: VerdictHealthy,
			Breaker: breakerOf[d],
		}
		dr.Fetch = windowStats(win.DiskFetch(d))
		dr.EWMA = win.DiskEWMA(d)
		dr.Speculations = e.det.DiskSpeculations(uint16(d))
		dr.SpecWins = e.det.DiskSpecWins(uint16(d))
		dr.Anomalies = diskAnoms[d]
		for _, kind := range dr.Anomalies {
			switch kind {
			case KindStragglerFetch:
				dr.Verdict = dr.Verdict.worse(VerdictStraggler)
			case KindBreakerFlap:
				dr.Verdict = dr.Verdict.worse(VerdictDegraded)
			case KindRotationStarvation:
				// A starving stream marks its disk degraded too: the
				// round-robin is not reaching work parked on it.
				dr.Verdict = dr.Verdict.worse(VerdictDegraded)
			}
		}
		if dr.Breaker == "open" || dr.Breaker == "half-open" {
			dr.Verdict = dr.Verdict.worse(VerdictDegraded)
		}
		if ex, ok := e.exemplars[d]; ok && ex.at >= now-e.cfg.Window {
			dr.SlowTrace = ex.trace
			dr.SlowDur = ex.dur
		}
		if dr.Shard >= 0 && dr.Shard < numShards {
			shardVerdicts[dr.Shard] = shardVerdicts[dr.Shard].worse(dr.Verdict)
		}
		rep.Verdict = rep.Verdict.worse(dr.Verdict)
		rep.Disks = append(rep.Disks, dr)
	}
	for i, v := range shardVerdicts {
		rep.Shards = append(rep.Shards, ShardReport{Shard: i, Verdict: v})
	}
	return rep
}
