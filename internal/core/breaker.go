package core

import (
	"errors"
	"time"

	"seqstream/internal/flight"
)

// ErrDiskDegraded fails a request fast because its disk's circuit
// breaker is open: the disk has failed repeatedly and is cooling down.
var ErrDiskDegraded = errors.New("core: disk degraded (circuit open)")

// ErrFetchTimeout fails the waiters of a read-ahead fetch that stayed
// outstanding past Config.FetchTimeout.
var ErrFetchTimeout = errors.New("core: fetch timed out")

// breakerState is the per-disk circuit state.
type breakerState uint8

const (
	// breakerClosed: healthy, requests flow.
	breakerClosed breakerState = iota
	// breakerOpen: failing, requests fail fast until the cooldown
	// elapses.
	breakerOpen
	// breakerHalfOpen: cooled down, traffic probes the disk; the first
	// device outcome decides between closed and open.
	breakerHalfOpen
)

// breaker is one disk's circuit. Each disk's circuit belongs to the
// shard that owns the disk; all access is under that shard's lock.
// The global count of open circuits lives in Server.degraded so every
// shard's fair-share computation sees disks degraded anywhere — the
// shard adjusts it through Server.noteDegradedTransition on every
// transition into or out of the open state.
type breaker struct {
	state    breakerState
	fails    int           // consecutive device failures
	reopenAt time.Duration // open until this instant (server clock)
	// probing marks that a half-open circuit has already admitted its
	// single probe request; further requests keep failing fast until
	// the probe's device outcome decides the state. probeAt lets a
	// probe that never reports (hung device) go stale after one more
	// cooldown, so the circuit cannot wedge half-open forever.
	probing bool
	probeAt time.Duration
}

// breakerFor returns the disk's circuit, creating it lazily, or nil
// when the breaker is disabled. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) breakerFor(disk int) *breaker {
	if sh.srv.cfg.BreakerThreshold <= 0 {
		return nil
	}
	b := sh.breakers[disk]
	if b == nil {
		b = &breaker{}
		sh.breakers[disk] = b
	}
	return b
}

// breakerAllows reports whether a request for disk may proceed,
// transitioning open → half-open once the cooldown elapses. Caller
// holds sh.mu.
//
//lint:holds mu
func (sh *shard) breakerAllows(disk int, now time.Duration) bool {
	if sh.srv.cfg.BreakerThreshold <= 0 {
		return true
	}
	b := sh.breakers[disk]
	if b == nil || b.state == breakerClosed {
		return true
	}
	if b.state == breakerHalfOpen {
		// Exactly one probe at a time. The first request admitted after
		// the cooldown carries the circuit's fate; admitting every
		// request while half-open (the old behavior) sent a thundering
		// herd to a disk the instant its cooldown elapsed.
		if b.probing && now-b.probeAt < sh.srv.cfg.BreakerCooldown {
			return false
		}
		b.probing = true
		b.probeAt = now
		return true
	}
	if now < b.reopenAt {
		return false
	}
	b.state = breakerHalfOpen
	b.probing = true
	b.probeAt = now
	sh.srv.noteDegradedTransition(-1)
	sh.publishDiskDown(disk)
	return true
}

// diskBlocked reports whether disk is refusing traffic right now (open
// and still cooling down). Dispatch skips blocked disks' streams.
// Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) diskBlocked(disk int, now time.Duration) bool {
	if sh.srv.cfg.BreakerThreshold <= 0 {
		return false
	}
	b := sh.breakers[disk]
	return b != nil && b.state == breakerOpen && now < b.reopenAt
}

// noteDiskFailure records one device failure on disk, tripping the
// circuit at the threshold (or instantly re-opening a probing one).
// Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) noteDiskFailure(disk int, now time.Duration) {
	b := sh.breakerFor(disk)
	if b == nil {
		return
	}
	b.fails++
	trip := b.state == breakerHalfOpen ||
		(b.state == breakerClosed && b.fails >= sh.srv.cfg.BreakerThreshold)
	if trip {
		b.state = breakerOpen
		b.probing = false
		b.reopenAt = now + sh.srv.cfg.BreakerCooldown
		sh.srv.noteDegradedTransition(1)
		sh.publishDiskDown(disk)
		sh.stats.BreakerTrips++
		if sh.fr != nil {
			sh.fr.Record(flight.Event{Op: flight.OpBreakerOpen, Err: flight.ErrDegraded,
				Disk: uint16(disk), Stream: flight.NoStream, T: now})
		}
	} else if b.state == breakerOpen {
		// Failures of requests already in flight while open extend the
		// cooldown: the disk is still sick.
		b.reopenAt = now + sh.srv.cfg.BreakerCooldown
	}
}

// noteDiskSuccess records one device success on disk, closing a
// probing circuit. Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) noteDiskSuccess(disk int) {
	if sh.srv.cfg.BreakerThreshold <= 0 {
		return
	}
	b := sh.breakers[disk]
	if b == nil {
		return
	}
	switch b.state {
	case breakerOpen:
		// A request issued before the trip completed after it. One
		// stale success is not proof of recovery: while the cooldown
		// runs the trip outranks it and the success is ignored; after
		// the cooldown it promotes the circuit to half-open, so the
		// next admitted request still probes before traffic resumes.
		// The circuit never skips straight from open to closed on a
		// stale completion (that let one late success cancel a fresh
		// trip and re-admit the full request load instantly).
		if sh.srv.clock.Now() < b.reopenAt {
			return
		}
		b.state = breakerHalfOpen
		b.probing = false
		sh.srv.noteDegradedTransition(-1)
		sh.publishDiskDown(disk)
	case breakerHalfOpen:
		// The probe came back healthy: the circuit closes.
		b.fails = 0
		b.state = breakerClosed
		b.probing = false
		sh.publishDiskDown(disk)
		if sh.fr != nil {
			sh.fr.Record(flight.Event{Op: flight.OpBreakerClose, Disk: uint16(disk),
				Stream: flight.NoStream, T: sh.srv.clock.Now()})
		}
	default:
		b.fails = 0
	}
}

// publishDiskDown mirrors the disk's blocked state into the server's
// lock-free per-disk table after a breaker transition. Replica
// selection on other shards reads it without taking this shard's lock.
// Caller holds sh.mu.
//
//lint:holds mu
func (sh *shard) publishDiskDown(disk int) {
	srv := sh.srv
	if srv.diskDown == nil {
		return
	}
	b := sh.breakers[disk]
	srv.diskDown[disk].Store(b != nil && b.state == breakerOpen)
}
