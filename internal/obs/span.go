package obs

import (
	"encoding/json"
	"errors"
	"io"
	"sync"
	"time"
)

// Stage is one step of a stream's lifecycle through the storage node:
// detection by the classifier, admission to the candidate queue, entry
// into the dispatch set, the fetch/stage round-trips that move its data
// into host memory, delivery to the client, and the ways staged state
// leaves the node (eviction, rotation, GC, retirement).
type Stage int

// Lifecycle stages, in the order a healthy stream traverses them.
const (
	// StageClassify marks stream detection (§4.1).
	StageClassify Stage = iota + 1
	// StageEnqueue marks (re-)admission to the candidate queue.
	StageEnqueue
	// StageDispatch marks entry into the dispatch set (§4.2).
	StageDispatch
	// StageFetch marks a read-ahead disk request being issued.
	StageFetch
	// StageStaged marks a fetch completing into the buffered set.
	StageStaged
	// StageDeliver marks a client request served from staged memory.
	StageDeliver
	// StageEvict marks a staged buffer reclaimed under memory pressure.
	StageEvict
	// StageRotate marks rotation out of the dispatch set after N
	// requests (§4.2).
	StageRotate
	// StageGC marks stream state collected by the periodic GC (§4.3).
	StageGC
	// StageRetire marks a stream that consumed its disk to the end.
	StageRetire
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageClassify:
		return "classify"
	case StageEnqueue:
		return "enqueue"
	case StageDispatch:
		return "dispatch"
	case StageFetch:
		return "fetch"
	case StageStaged:
		return "staged"
	case StageDeliver:
		return "deliver"
	case StageEvict:
		return "evict"
	case StageRotate:
		return "rotate"
	case StageGC:
		return "gc"
	case StageRetire:
		return "retire"
	default:
		return "unknown"
	}
}

// SpanEvent is one stage transition of one stream.
type SpanEvent struct {
	Stream int           `json:"stream"`
	Disk   int           `json:"disk"`
	Stage  Stage         `json:"stage"`
	At     time.Duration `json:"atNanos"`
	Offset int64         `json:"offset"`
	Length int64         `json:"length"`
}

// SpanLog records stream-lifecycle events in a bounded ring, stamped
// with an injected clock so simulated (virtual-time) and real nodes
// share one recorder. It is safe for concurrent use.
type SpanLog struct {
	now func() time.Duration

	mu      sync.Mutex
	events  []SpanEvent //lint:guardedby mu
	next    int         //lint:guardedby mu
	wrapped bool        //lint:guardedby mu

	// sink receives flushed events as JSON lines; nil discards. total
	// and flushed are absolute event counts (recorded ever / flushed
	// through), so a flush emits exactly the retained events that were
	// not flushed before — ring overwrites can drop events between
	// flushes, but never duplicate them.
	sink    io.Writer //lint:guardedby mu
	total   int64     //lint:guardedby mu
	flushed int64     //lint:guardedby mu
}

// NewSpanLog builds a span log holding up to capacity events (older
// events are overwritten once full). now supplies timestamps — a
// simulation clock or a real clock's Now.
func NewSpanLog(now func() time.Duration, capacity int) (*SpanLog, error) {
	if now == nil {
		return nil, errors.New("obs: nil clock")
	}
	if capacity <= 0 {
		return nil, errors.New("obs: span capacity must be positive")
	}
	return &SpanLog{now: now, events: make([]SpanEvent, 0, capacity)}, nil
}

// Record stamps and appends one stage transition.
func (l *SpanLog) Record(stream, disk int, stage Stage, off, length int64) {
	l.RecordAt(l.now(), stream, disk, stage, off, length)
}

// RecordAt appends one stage transition stamped at, a reading of the
// log's clock the caller already holds.
func (l *SpanLog) RecordAt(at time.Duration, stream, disk int, stage Stage, off, length int64) {
	e := SpanEvent{Stream: stream, Disk: disk, Stage: stage, At: at, Offset: off, Length: length}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.events) < cap(l.events) {
		l.events = append(l.events, e)
		return
	}
	l.events[l.next] = e
	l.next = (l.next + 1) % cap(l.events)
	l.wrapped = true
}

// SetSink directs flushed events to w as JSON lines (one SpanEvent per
// line, the ReadJSONL-style framing). Nil detaches the sink. The log
// does not own w: the caller closes it after Close.
func (l *SpanLog) SetSink(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = w
	l.mu.Unlock()
}

// Flush writes the retained events recorded since the last flush to
// the sink. Events the ring overwrote between flushes are lost (the
// log is bounded by design); nothing is ever written twice. Safe on a
// nil log or with no sink.
func (l *SpanLog) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

// Close flushes and detaches the sink, so process-exit paths can hook
// it without racing later flushes. It does not close the underlying
// writer. Safe on a nil log.
func (l *SpanLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.flushLocked()
	l.sink = nil
	return err
}

// flushLocked emits the unflushed retained events. Caller holds l.mu.
//
//lint:holds mu
func (l *SpanLog) flushLocked() error {
	if l.sink == nil {
		l.flushed = l.total
		return nil
	}
	start := l.total - int64(len(l.events))
	if l.flushed > start {
		start = l.flushed
	}
	enc := json.NewEncoder(l.sink)
	size := int64(cap(l.events))
	for a := start; a < l.total; a++ {
		if err := enc.Encode(l.events[a%size]); err != nil {
			l.flushed = a
			return err
		}
	}
	l.flushed = l.total
	return nil
}

// Snapshot returns the retained events in record order.
func (l *SpanLog) Snapshot() []SpanEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SpanEvent, 0, len(l.events))
	if l.wrapped {
		out = append(out, l.events[l.next:]...)
		out = append(out, l.events[:l.next]...)
	} else {
		out = append(out, l.events...)
	}
	return out
}
