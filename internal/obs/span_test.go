package obs

import (
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for span tests.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

// timeline returns the retained events of one stream, in record order.
func timeline(l *SpanLog, stream int) []SpanEvent {
	var out []SpanEvent
	for _, e := range l.Snapshot() {
		if e.Stream == stream {
			out = append(out, e)
		}
	}
	return out
}

func TestSpanLogTimeline(t *testing.T) {
	clk := &fakeClock{}
	l, err := NewSpanLog(clk.Now, 16)
	if err != nil {
		t.Fatal(err)
	}
	clk.now = 10
	l.Record(1, 0, StageClassify, 0, 0)
	clk.now = 20
	l.Record(1, 0, StageFetch, 4096, 1024)
	clk.now = 25
	l.Record(2, 1, StageClassify, 0, 0)
	clk.now = 30
	l.Record(1, 0, StageStaged, 4096, 1024)
	clk.now = 40
	l.Record(1, 0, StageDeliver, 4096, 512)

	tl := timeline(l, 1)
	if len(tl) != 4 {
		t.Fatalf("stream 1 timeline has %d events, want 4", len(tl))
	}
	wantStages := []Stage{StageClassify, StageFetch, StageStaged, StageDeliver}
	for i, e := range tl {
		if e.Stage != wantStages[i] {
			t.Errorf("event %d stage = %v, want %v", i, e.Stage, wantStages[i])
		}
	}
	if tl[1].At != 20 || tl[3].At != 40 {
		t.Errorf("timestamps not taken from the injected clock: %+v", tl)
	}
	if tl2 := timeline(l, 2); len(tl2) != 1 || tl2[0].Disk != 1 || tl2[0].At != 25 {
		t.Errorf("stream 2 timeline = %+v, want one classify on disk 1 at 25ns", tl2)
	}
}

func TestSpanLogRingWrap(t *testing.T) {
	clk := &fakeClock{}
	l, err := NewSpanLog(clk.Now, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		clk.now = time.Duration(i)
		l.Record(i, 0, StageFetch, 0, 0)
	}
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("len = %d, want capacity 4", len(snap))
	}
	for i, e := range snap {
		if e.Stream != 6+i {
			t.Fatalf("snapshot[%d].Stream = %d, want %d (oldest-first after wrap)", i, e.Stream, 6+i)
		}
	}
}

func TestSpanLogValidation(t *testing.T) {
	if _, err := NewSpanLog(nil, 4); err == nil {
		t.Error("nil clock accepted")
	}
	clk := &fakeClock{}
	if _, err := NewSpanLog(clk.Now, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestStageStrings(t *testing.T) {
	stages := []Stage{StageClassify, StageEnqueue, StageDispatch, StageFetch, StageStaged,
		StageDeliver, StageEvict, StageRotate, StageGC, StageRetire}
	seen := make(map[string]bool)
	for _, s := range stages {
		str := s.String()
		if str == "unknown" || seen[str] {
			t.Errorf("stage %d has bad or duplicate name %q", int(s), str)
		}
		seen[str] = true
	}
	if Stage(99).String() != "unknown" {
		t.Error("out-of-range stage should stringify as unknown")
	}
}
