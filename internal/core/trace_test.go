package core

import (
	"testing"

	"seqstream/internal/flight"
)

// TestServerTracing follows 24 traced reads of one stream through the
// flight recorder: every trace id completes once, the first
// DetectThreshold as direct reads and the rest from staged buffers.
func TestServerTracing(t *testing.T) {
	n := baseNode(t, DefaultConfig(64<<20, 1<<20))
	rec, err := flight.New(n.clock.Now, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.Flight = rec
	srv, err := NewServer(n.dev, n.clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.server.Close()
	n.server = srv
	t.Cleanup(srv.Close)

	const req = 64 << 10
	for i := 0; i < 24; i++ {
		n.do(t, Request{Disk: 0, Offset: int64(i) * req, Length: req, Trace: rec.NextTrace()})
	}
	var fetches, directs, hits int
	completed := make(map[uint64]int)
	for _, e := range rec.Snapshot().Merged() {
		if e.Err != flight.ErrNone {
			t.Errorf("error event: %+v", e)
		}
		if e.Dur < 0 {
			t.Fatalf("negative duration: %+v", e)
		}
		switch e.Op {
		case flight.OpFetch:
			fetches++
		case flight.OpDirect:
			directs++
			completed[e.Trace]++
		case flight.OpDeliver:
			if e.Trace != 0 {
				hits++
				completed[e.Trace]++
			}
		}
	}
	if len(completed) != 24 {
		t.Errorf("completed trace ids = %d, want 24", len(completed))
	}
	for id, c := range completed {
		if id == 0 || c != 1 {
			t.Errorf("trace id %d completed %d times", id, c)
		}
	}
	if fetches == 0 {
		t.Error("no fetch events recorded")
	}
	if directs != srv.Config().DetectThreshold {
		t.Errorf("direct events = %d, want threshold %d", directs, srv.Config().DetectThreshold)
	}
	if hits == 0 {
		t.Error("no traced staged hits recorded")
	}
}
