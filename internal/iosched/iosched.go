// Package iosched models host I/O schedulers in the style of the Linux
// 2.6 elevators the paper benchmarks in Figure 2: noop (FIFO), a
// C-LOOK elevator, the anticipatory scheduler, and CFQ. The schedulers
// sit between emulated processes issuing small synchronous reads and a
// simulated drive, together with an OS readahead model (per-process
// sequential windows fed from a shared page-cache budget).
//
// The models capture the decision rules that matter for many-stream
// sequential workloads:
//
//   - noop: service window reads in arrival order.
//   - elevator: service in ascending-offset order (C-LOOK sweep).
//   - anticipatory: after serving a process, briefly idle the disk for
//     that process's next sequential read; keep following one process
//     until the oldest waiting request exceeds an aging deadline.
//   - cfq: round-robin across per-process queues with a per-visit byte
//     quantum and idling within the slice.
package iosched

import (
	"errors"
	"fmt"
	"time"

	"seqstream/internal/disk"
	"seqstream/internal/sim"
)

// Policy selects the scheduling discipline.
type Policy int

// Supported policies.
const (
	Noop Policy = iota + 1
	Elevator
	Anticipatory
	CFQ
	// Deadline is the Linux deadline elevator: C-LOOK order with a
	// per-request expiry that forces aged requests to the head.
	Deadline
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Noop:
		return "noop"
	case Elevator:
		return "elevator"
	case Anticipatory:
		return "anticipatory"
	case CFQ:
		return "cfq"
	case Deadline:
		return "deadline"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config tunes the scheduler and the OS readahead model.
type Config struct {
	// Policy is the scheduling discipline.
	Policy Policy
	// MaxWindow is the largest per-process readahead window (Linux
	// default 128 KB).
	MaxWindow int64
	// MinWindow is the smallest window granted to a sequential reader.
	MinWindow int64
	// ReadAheadBudget is the shared page-cache budget for readahead
	// pages; per-process windows shrink to budget/processes under
	// pressure.
	ReadAheadBudget int64
	// AnticWait is how long anticipatory/CFQ idles the disk waiting
	// for the served process's next request.
	AnticWait time.Duration
	// Deadline is the aging bound: anticipation is abandoned when the
	// oldest queued request has waited this long.
	Deadline time.Duration
	// CFQSliceBytes is CFQ's per-visit quantum.
	CFQSliceBytes int64
	// HitTime is the service time of a page-cache hit.
	HitTime time.Duration
	// RampStart, when positive, enables Linux-style window ramp-up: a
	// fresh sequential reader starts with this window and doubles it on
	// every consumed window, up to the pressure-adjusted maximum. Zero
	// grants the full window immediately.
	RampStart int64
}

// DefaultConfig mirrors Linux 2.6.11-era defaults.
func DefaultConfig(p Policy) Config {
	return Config{
		Policy:          p,
		MaxWindow:       128 << 10,
		MinWindow:       16 << 10,
		ReadAheadBudget: 16 << 20,
		AnticWait:       6 * time.Millisecond,
		Deadline:        2 * time.Second,
		CFQSliceBytes:   512 << 10,
		HitTime:         5 * time.Microsecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Policy < Noop || c.Policy > Deadline:
		return errors.New("iosched: unknown policy")
	case c.MaxWindow <= 0 || c.MinWindow <= 0 || c.MinWindow > c.MaxWindow:
		return errors.New("iosched: need 0 < MinWindow <= MaxWindow")
	case c.ReadAheadBudget <= 0:
		return errors.New("iosched: read-ahead budget must be positive")
	case c.AnticWait < 0 || c.Deadline < 0 || c.HitTime < 0:
		return errors.New("iosched: durations must be >= 0")
	case c.CFQSliceBytes <= 0:
		return errors.New("iosched: CFQ slice must be positive")
	case c.RampStart < 0:
		return errors.New("iosched: ramp start must be >= 0")
	}
	return nil
}

// pendingRead is a process read waiting for a window fetch.
type pendingRead struct {
	proc    int
	off     int64
	length  int64
	window  int64 // disk fetch size
	arrived sim.Time
	done    func()
}

// procState tracks one emulated process.
type procState struct {
	id          int
	cachedStart int64
	cachedEnd   int64
	lastEnd     int64 // end of the last read issued by the process
	sliceUsed   int64 // CFQ: bytes consumed in the current visit
	rampWindow  int64 // current ramped window (0 = fresh)
}

// Stats accumulates scheduler counters.
type Stats struct {
	Reads      int64
	CacheHits  int64
	DiskReads  int64
	DiskBytes  int64
	AnticWaits int64 // times the disk was idled waiting for a process
	AnticHits  int64 // idles that were rewarded with a sequential read
}

// Scheduler dispatches process reads to a drive under a policy. All
// access must happen on the engine loop.
type Scheduler struct {
	eng   *sim.Engine
	cfg   Config
	d     *disk.Disk
	procs map[int]*procState
	queue []*pendingRead

	busy         bool
	lastProc     int // process served by the last window fetch
	hasLastProc  bool
	lastOffset   int64 // elevator position
	anticipating bool
	anticCancel  *sim.Event
	rrOrder      []int // CFQ round-robin order of process ids
	stats        Stats
}

// New builds a scheduler over a drive.
func New(eng *sim.Engine, d *disk.Disk, cfg Config) (*Scheduler, error) {
	if eng == nil {
		return nil, errors.New("iosched: nil engine")
	}
	if d == nil {
		return nil, errors.New("iosched: nil disk")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Scheduler{eng: eng, cfg: cfg, d: d, procs: make(map[int]*procState)}, nil
}

// window returns the readahead window granted to a sequential reader
// under the current memory pressure.
func (s *Scheduler) window() int64 {
	n := int64(len(s.procs))
	if n < 1 {
		n = 1
	}
	w := s.cfg.ReadAheadBudget / n
	if w > s.cfg.MaxWindow {
		w = s.cfg.MaxWindow
	}
	if w < s.cfg.MinWindow {
		w = s.cfg.MinWindow
	}
	return w
}

// Read submits a synchronous read from process proc. done runs on the
// engine loop when the data is available.
func (s *Scheduler) Read(proc int, off, length int64, done func()) error {
	if off < 0 || length <= 0 || off+length > s.d.Capacity() {
		return fmt.Errorf("iosched: read out of range (off=%d len=%d)", off, length)
	}
	p := s.procs[proc]
	if p == nil {
		p = &procState{id: proc}
		s.procs[proc] = p
		s.rrOrder = append(s.rrOrder, proc)
	}
	s.stats.Reads++

	// Page-cache hit: the readahead window already covers the range.
	if off >= p.cachedStart && off+length <= p.cachedEnd && p.cachedEnd > p.cachedStart {
		s.stats.CacheHits++
		p.lastEnd = off + length
		s.eng.Schedule(s.cfg.HitTime, done)
		return nil
	}

	// Miss: build a window fetch. Sequential readers (picking up where
	// they left off) get a readahead window; others fetch exactly the
	// request. With ramping enabled the window starts small and doubles
	// per consumed window (Linux readahead ramp-up).
	win := length
	if p.lastEnd == off || p.cachedEnd == off {
		grant := s.window()
		if s.cfg.RampStart > 0 {
			if p.rampWindow == 0 {
				p.rampWindow = s.cfg.RampStart
			} else if p.rampWindow < grant {
				p.rampWindow *= 2
			}
			if p.rampWindow < grant {
				grant = p.rampWindow
			}
		}
		if grant > win {
			win = grant
		}
	} else if s.cfg.RampStart > 0 {
		p.rampWindow = 0 // seek: restart the ramp
	}
	if rem := s.d.Capacity() - off; win > rem {
		win = rem
	}
	p.lastEnd = off + length
	req := &pendingRead{proc: proc, off: off, length: length, window: win, arrived: s.eng.Now(), done: done}
	s.queue = append(s.queue, req)

	// An anticipation idle is rewarded when the awaited process issues
	// its next read.
	if s.anticipating && s.hasLastProc && proc == s.lastProc {
		s.stats.AnticHits++
		s.stopAnticipating()
		s.pump()
		return nil
	}
	if !s.busy && !s.anticipating {
		s.pump()
	}
	return nil
}

func (s *Scheduler) stopAnticipating() {
	s.anticipating = false
	if s.anticCancel != nil {
		s.eng.Cancel(s.anticCancel)
		s.anticCancel = nil
	}
}

// pump starts the next window fetch if the disk is free.
func (s *Scheduler) pump() {
	if s.busy || len(s.queue) == 0 {
		return
	}
	idx := s.pick()
	req := s.queue[idx]
	s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
	s.busy = true
	s.lastOffset = req.off + req.window
	err := s.d.Submit(req.off, req.window, func(disk.Result) {
		s.busy = false
		s.finish(req)
	})
	if err != nil {
		// Requests are validated in Read; a failure here means the
		// window overran the disk, which the clamp prevents. Complete
		// the read degenerately to avoid wedging the queue.
		s.busy = false
		s.finish(req)
		return
	}
	s.stats.DiskReads++
	s.stats.DiskBytes += req.window
}

// finish installs the fetched window and completes the process read.
func (s *Scheduler) finish(req *pendingRead) {
	p := s.procs[req.proc]
	p.cachedStart = req.off
	p.cachedEnd = req.off + req.window
	p.sliceUsed += req.window
	s.lastProc = req.proc
	s.hasLastProc = true
	if req.done != nil {
		req.done()
	}
	s.afterService()
}

// afterService decides what the disk does next per policy.
func (s *Scheduler) afterService() {
	switch s.cfg.Policy {
	case Anticipatory, CFQ:
		s.anticipatoryNext()
	default:
		s.pump()
	}
}

// anticipatoryNext keeps following the last process while fairness
// allows, idling the disk briefly for its next request.
func (s *Scheduler) anticipatoryNext() {
	if len(s.queue) > 0 {
		// Aging: switch away when the oldest request has waited too
		// long (AS), or when the slice quantum is spent (CFQ).
		oldest := s.queue[0].arrived
		for _, r := range s.queue {
			if r.arrived < oldest {
				oldest = r.arrived
			}
		}
		expired := s.eng.Now()-oldest > s.cfg.Deadline
		sliceDone := false
		if s.cfg.Policy == CFQ && s.hasLastProc {
			if p := s.procs[s.lastProc]; p != nil && p.sliceUsed >= s.cfg.CFQSliceBytes {
				sliceDone = true
			}
		}
		if expired || sliceDone {
			if sliceDone {
				if p := s.procs[s.lastProc]; p != nil {
					p.sliceUsed = 0
				}
			}
			s.pump()
			return
		}
		// A queued request from the favored process wins immediately.
		if s.hasLastProc {
			for _, r := range s.queue {
				if r.proc == s.lastProc {
					s.pump()
					return
				}
			}
		}
	}
	// Idle the disk briefly, betting on the favored process.
	if !s.hasLastProc {
		s.pump()
		return
	}
	s.stats.AnticWaits++
	s.anticipating = true
	s.anticCancel = s.eng.Schedule(s.cfg.AnticWait, func() {
		s.anticipating = false
		s.anticCancel = nil
		s.pump()
	})
}

// pick chooses the queue index to service next.
func (s *Scheduler) pick() int {
	switch s.cfg.Policy {
	case Elevator:
		return s.pickElevator()
	case Anticipatory:
		return s.pickFavoredOr(s.pickOldest)
	case CFQ:
		return s.pickFavoredOr(s.pickRoundRobin)
	case Deadline:
		return s.pickDeadline()
	default:
		return 0 // FIFO
	}
}

// pickFavoredOr returns a request from the favored process if present,
// else defers to fallback.
func (s *Scheduler) pickFavoredOr(fallback func() int) int {
	if s.hasLastProc {
		p := s.procs[s.lastProc]
		sliceOK := s.cfg.Policy != CFQ || (p != nil && p.sliceUsed < s.cfg.CFQSliceBytes)
		if sliceOK {
			for i, r := range s.queue {
				if r.proc == s.lastProc {
					return i
				}
			}
		}
	}
	return fallback()
}

func (s *Scheduler) pickOldest() int {
	best := 0
	for i, r := range s.queue {
		if r.arrived < s.queue[best].arrived {
			best = i
		}
	}
	return best
}

// pickRoundRobin walks the process order after the favored process.
func (s *Scheduler) pickRoundRobin() int {
	if len(s.rrOrder) == 0 {
		return 0
	}
	start := 0
	if s.hasLastProc {
		for i, id := range s.rrOrder {
			if id == s.lastProc {
				start = i + 1
				break
			}
		}
	}
	for k := 0; k < len(s.rrOrder); k++ {
		id := s.rrOrder[(start+k)%len(s.rrOrder)]
		if p := s.procs[id]; p != nil {
			p.sliceUsed = 0
		}
		for i, r := range s.queue {
			if r.proc == id {
				return i
			}
		}
	}
	return 0
}

// pickElevator picks the smallest offset at or beyond the sweep
// position, wrapping to the global smallest (C-LOOK).
func (s *Scheduler) pickElevator() int {
	bestAbove, bestAny := -1, 0
	for i, r := range s.queue {
		if r.off < s.queue[bestAny].off {
			bestAny = i
		}
		if r.off >= s.lastOffset {
			if bestAbove < 0 || r.off < s.queue[bestAbove].off {
				bestAbove = i
			}
		}
	}
	if bestAbove >= 0 {
		return bestAbove
	}
	return bestAny
}

// pickDeadline services in elevator order unless the oldest queued
// request has exceeded the deadline, in which case it jumps the queue
// (the Linux deadline scheduler's expired-FIFO check).
func (s *Scheduler) pickDeadline() int {
	oldest := s.pickOldest()
	if s.eng.Now()-s.queue[oldest].arrived > s.cfg.Deadline {
		return oldest
	}
	return s.pickElevator()
}
