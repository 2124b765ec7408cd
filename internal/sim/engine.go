// Package sim provides a deterministic discrete-event simulation engine.
//
// All disk, controller, and host models in this repository advance a
// shared virtual clock owned by an Engine. Events are ordered by their
// virtual timestamp with FIFO tie-breaking, so a simulation run with a
// fixed seed is fully reproducible.
package sim

import (
	"container/heap"
	"errors"
	"time"
)

// Time is a virtual instant, expressed as nanoseconds since the start of
// the simulation. It deliberately reuses time.Duration semantics so that
// durations and instants compose with the standard library.
type Time = time.Duration

// ErrStopped is returned by Run variants when the engine was stopped
// explicitly before the run condition was reached.
var ErrStopped = errors.New("sim: engine stopped")

// Event is a scheduled callback. Cancel prevents a pending event from
// firing; cancelling an already-fired event is a no-op.
type Event struct {
	at    Time
	seq   uint64
	fn    func()
	index int // heap index, -1 once popped or cancelled
}

// eventQueue implements heap.Interface ordered by (time, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev, ok := x.(*Event)
	if !ok {
		return
	}
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Engine owns the virtual clock and the pending event queue. The zero
// value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	stopped bool
	// processed counts events executed since construction; useful for
	// runaway detection in tests.
	processed uint64
}

// NewEngine returns an engine with the clock at zero and no pending
// events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero. The returned Event may be cancelled.
func (e *Engine) Schedule(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at the given virtual instant. Instants in the past
// fire at the current time, after already-queued events for that time.
func (e *Engine) ScheduleAt(at Time, fn func()) *Event {
	if at < e.now {
		at = e.now
	}
	ev := &Event{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// Cancel removes a pending event. It is safe to cancel an event that has
// already fired or been cancelled.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
	ev.fn = nil
}

// Stop aborts the current Run call after the in-flight event returns.
func (e *Engine) Stop() { e.stopped = true }

// step pops and executes the earliest event. It reports false when the
// queue is empty.
func (e *Engine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	popped := heap.Pop(&e.queue)
	ev, ok := popped.(*Event)
	if !ok {
		return false
	}
	e.now = ev.at
	e.processed++
	if ev.fn != nil {
		ev.fn()
	}
	return true
}

// Run executes events until the queue drains. It returns ErrStopped if
// Stop was called during execution.
func (e *Engine) Run() error {
	e.stopped = false
	for e.step() {
		if e.stopped {
			return ErrStopped
		}
	}
	return nil
}

// RunUntil executes events with timestamps at or before deadline. Events
// scheduled later remain queued and the clock advances to the deadline.
func (e *Engine) RunUntil(deadline Time) error {
	e.stopped = false
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.step()
		if e.stopped {
			return ErrStopped
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
	return nil
}

// RunFor advances the clock by d, executing all events in that window.
func (e *Engine) RunFor(d time.Duration) error {
	return e.RunUntil(e.now + d)
}

// RunWhile executes events while cond returns true and events remain.
// cond is evaluated before each event.
func (e *Engine) RunWhile(cond func() bool) error {
	e.stopped = false
	for cond() {
		if !e.step() {
			return nil
		}
		if e.stopped {
			return ErrStopped
		}
	}
	return nil
}
