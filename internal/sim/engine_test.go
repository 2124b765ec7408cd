package sim

import (
	"testing"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3*time.Millisecond {
		t.Errorf("Now = %v, want 3ms", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: order = %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits int
	var rec func()
	rec = func() {
		hits++
		if hits < 5 {
			e.Schedule(time.Millisecond, rec)
		}
	}
	e.Schedule(0, rec)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if hits != 5 {
		t.Errorf("hits = %d, want 5", hits)
	}
	if e.Now() != 4*time.Millisecond {
		t.Errorf("Now = %v, want 4ms", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(time.Millisecond, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is a no-op
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestEngineCancelNil(t *testing.T) {
	e := NewEngine()
	e.Cancel(nil) // must not panic
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	if err := e.RunUntil(6 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 6*time.Millisecond {
		t.Errorf("Now = %v, want 6ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 3 {
		t.Errorf("fired %d events after drain, want 3", len(fired))
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(2*time.Millisecond, func() { count++ })
	if err := e.RunFor(time.Millisecond); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if count != 0 {
		t.Error("event fired too early")
	}
	if err := e.RunFor(time.Millisecond); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if count != 1 {
		t.Error("event did not fire")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	if err := e.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

func TestEngineRunWhile(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	if err := e.RunWhile(func() bool { return count < 4 }); err != nil {
		t.Fatalf("RunWhile: %v", err)
	}
	if count != 4 {
		t.Errorf("count = %d, want 4", count)
	}
	if err := e.RunWhile(func() bool { return true }); err != nil {
		t.Fatalf("RunWhile drain: %v", err)
	}
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
}

func TestEngineScheduleAtPast(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.Schedule(5*time.Millisecond, func() {
		e.ScheduleAt(0, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 5*time.Millisecond {
		t.Errorf("past event ran at %v, want clamped to 5ms", at)
	}
}

func TestEngineNegativeDelay(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-time.Second, func() { fired = true })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired || e.Now() != 0 {
		t.Errorf("negative delay: fired=%v now=%v", fired, e.Now())
	}
}

func TestEngineProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(time.Duration(i), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Processed() != 7 {
		t.Errorf("Processed = %d, want 7", e.Processed())
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical sequences")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %v", n)
		}
		if n := r.Int63n(1 << 40); n < 0 || n >= 1<<40 {
			t.Fatalf("Int63n out of range: %v", n)
		}
	}
	if r.Intn(0) != 0 || r.Int63n(-5) != 0 || r.Duration(-1) != 0 {
		t.Error("degenerate bounds should return 0")
	}
}
