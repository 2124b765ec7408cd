package main

// spans.go is the benchmark's own span recorder for the traced run.
// Spans are recorded around the calls into each layer, from the
// benchmark's side; they stay in memory and are written out when the
// run ends. Spans inside the program are a later issue.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"seqstream/benchmark/benchdev"
)

// span is one timed interval. Spans of one request share Req; a device
// read is its own root and carries the (disk, offset, length) a
// waiting request is joined to it by.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Disk   int    `json:"disk"`
	Off    int64  `json:"off"`
	Len    int64  `json:"len"`
}

// tracer collects spans from every goroutine of a traced run. One
// request in traceOneIn takes the lock, so it is not on the hot path.
type tracer struct {
	mu    sync.Mutex
	spans []span // a span's id is its index + 1; a request's id is its root span's

	callNs, calls int64 // traced Client.Go / Submit calls, for the *_ns rows
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) add(s span) uint64 {
	s.ID = uint64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	return s.ID
}

// root opens a load.request span and returns the request id.
func (t *tracer) root(start time.Duration, disk int, off int64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.add(span{Name: "load.request", Start: int64(start), Disk: disk, Off: off, Len: reqSize})
	t.spans[id-1].Req = id
	return id
}

// call records the layer call that carried the request: its own
// duration, not the request's.
func (t *tracer) call(req uint64, name string, start, end time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.spans[req-1]
	t.add(span{Parent: req, Req: req, Name: name, Start: int64(start), End: int64(end),
		Disk: root.Disk, Off: root.Off, Len: root.Len})
	t.callNs += int64(end - start)
	t.calls++
}

// end closes a request's root span at its callback.
func (t *tracer) end(req uint64, at time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[req-1].End = int64(at)
}

// read records one queued device read with its queue and service
// parts.
func (t *tracer) read(r benchdev.Read) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Name: "blockdev.read", Start: int64(r.Arrive), End: int64(r.Done), Disk: r.Disk, Off: r.Off, Len: r.Len}
	id := t.add(s)
	s.Parent = id
	s.Name, s.End = "blockdev.read.queue", int64(r.Start)
	t.add(s)
	s.Name, s.Start, s.End = "blockdev.read.service", int64(r.Start), int64(r.Done)
	t.add(s)
}

func (t *tracer) meanCallNs() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.calls == 0 {
		return 0
	}
	return float64(t.callNs) / float64(t.calls)
}

// write fills in self times (duration minus the children's) and writes
// the finished spans as JSON lines.
func (t *tracer) write(path string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= s.Start {
			t.spans[s.Parent-1].Self -= s.End - s.Start
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	n := 0
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // still open when the run stopped
		}
		if s.Self < 0 {
			// An inline delivery calls back before the call returns, so
			// the call outlasts the request it carried.
			s.Self = 0
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return n, err
		}
		n++
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
