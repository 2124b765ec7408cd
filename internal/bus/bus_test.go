package bus

import (
	"testing"
	"time"

	"seqstream/internal/sim"
)

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(nil, 1e6); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(eng, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := New(eng, -5); err == nil {
		t.Error("negative rate accepted")
	}
	if b, err := New(eng, 1e6); err != nil || b == nil {
		t.Errorf("valid bus rejected: %v", err)
	}
}

func TestTransferTiming(t *testing.T) {
	eng := sim.NewEngine()
	b, err := New(eng, 100e6) // 100 MB/s
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	b.Transfer(100e6, func() { doneAt = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != time.Second {
		t.Errorf("100MB at 100MB/s finished at %v, want 1s", doneAt)
	}
}

func TestTransferFIFOQueueing(t *testing.T) {
	eng := sim.NewEngine()
	b, err := New(eng, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	var first, second sim.Time
	b.Transfer(50e6, func() { first = eng.Now() })
	b.Transfer(50e6, func() { second = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if first != 500*time.Millisecond {
		t.Errorf("first done at %v", first)
	}
	if second != time.Second {
		t.Errorf("second done at %v, want queued behind first", second)
	}
}

func TestTransferZeroBytes(t *testing.T) {
	eng := sim.NewEngine()
	b, err := New(eng, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	b.Transfer(0, func() { called = true })
	b.Transfer(-10, nil) // nil done must not panic
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("zero-byte transfer never completed")
	}
	if b.busyUntil != 0 {
		t.Errorf("zero-byte transfers left a backlog until %v", b.busyUntil)
	}
}

func TestBusyUntil(t *testing.T) {
	eng := sim.NewEngine()
	b, err := New(eng, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	b.Transfer(100e6, nil)
	if b.busyUntil != time.Second {
		t.Errorf("backlog drains at %v, want 1s", b.busyUntil)
	}
}
