package core

import (
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/obs"
)

// TestLatencyWindowsWiring runs real traffic through a server with
// WindowSpan set and checks the request and fetch paths both land in
// the windows, per-disk telemetry included, and that the node-wide
// families reach an attached registry.
func TestLatencyWindowsWiring(t *testing.T) {
	dev, err := blockdev.NewMemDevice(2, 1<<30, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.GCPeriod = time.Hour
	cfg.EvictIdle = time.Hour
	cfg.WindowSpan = time.Minute
	cfg.Obs = NewObs(reg, nil)
	srv, err := NewServer(dev, blockdev.NewRealClock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const req = 64 << 10
	ch := make(chan struct{}, 1)
	done := func(r Response) {
		if r.Err != nil {
			t.Errorf("read failed: %v", r.Err)
		}
		r.Release()
		ch <- struct{}{}
	}
	// Sequential reads on disk 0 to trigger classification + fetches;
	// disk 1 stays idle.
	for i := 0; i < 16; i++ {
		if err := srv.Submit(Request{Disk: 0, Offset: int64(i) * req, Length: req, Done: done}); err != nil {
			t.Fatal(err)
		}
		<-ch
	}

	w := srv.Windows()
	if w == nil {
		t.Fatal("Windows() is nil with WindowSpan set")
	}
	if w.Span() != time.Minute {
		t.Fatalf("Span = %v", w.Span())
	}
	if len(w.disks) != 2 {
		t.Fatalf("per-disk windows = %d, want 2", len(w.disks))
	}
	if s := w.Request(); s.Count == 0 {
		t.Fatal("request window saw no samples")
	}
	if s := w.Fetch(); s.Count == 0 {
		t.Fatal("fetch window saw no samples")
	}
	if s := w.DiskFetch(0); s.Count == 0 {
		t.Fatal("disk 0 fetch window saw no samples")
	}
	if w.DiskEWMA(0) <= 0 {
		t.Fatal("disk 0 EWMA unseeded after fetches")
	}
	if s := w.DiskFetch(1); s.Count != 0 {
		t.Fatalf("idle disk 1 window has %d samples", s.Count)
	}
	// Out-of-range accessors are safe.
	if s := w.DiskFetch(99); s.Count != 0 {
		t.Fatal("out-of-range disk window not empty")
	}
	if w.DiskEWMA(-1) != 0 {
		t.Fatal("out-of-range EWMA not zero")
	}

	// The node-wide windowed families landed on the registry.
	vars := reg.Vars()
	for _, name := range []string{
		"seqstream_core_request_latency_window_seconds",
		"seqstream_core_fetch_latency_window_seconds",
	} {
		m, ok := vars[name].(map[string]any)
		if !ok {
			t.Fatalf("registry missing window family %s", name)
		}
		if m["count"].(int64) == 0 {
			t.Fatalf("window family %s empty", name)
		}
	}

	// Nil-receiver accessors keep disabled-window call sites simple.
	var nilW *LatencyWindows
	if nilW.Span() != 0 || nilW.DiskEWMA(0) != 0 {
		t.Fatal("nil LatencyWindows accessors not zero")
	}
	if s := nilW.Request(); s.Count != 0 {
		t.Fatal("nil LatencyWindows snapshot not empty")
	}
}

// TestWindowConfigValidation covers the new Config fields.
func TestWindowConfigValidation(t *testing.T) {
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.WindowSpan = -time.Second
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative WindowSpan accepted")
	}
	// WindowSpan too short for the bucket count fails server build.
	dev, err := blockdev.NewMemDevice(1, 1<<30, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg = DefaultConfig(64<<20, 1<<20)
	cfg.WindowSpan = 5 * time.Nanosecond
	if _, err := NewServer(dev, blockdev.NewRealClock(), cfg); err == nil {
		t.Fatal("unusable window span accepted")
	}
}
