package iosched

import (
	"testing"
	"time"

	"seqstream/internal/disk"
	"seqstream/internal/sim"
)

func newSched(t *testing.T, p Policy, mutate func(*Config)) (*sim.Engine, *Scheduler, *disk.Disk) {
	t.Helper()
	eng := sim.NewEngine()
	// The drive does no prefetching of its own: the OS readahead model
	// is the unit under test.
	dcfg := disk.ProfileTuned(128<<10, 64, 0, 1)
	d, err := disk.New(eng, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(p)
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(eng, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, s, d
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", nil, true},
		{"bad policy", func(c *Config) { c.Policy = 0 }, false},
		{"zero max window", func(c *Config) { c.MaxWindow = 0 }, false},
		{"min over max", func(c *Config) { c.MinWindow = c.MaxWindow * 2 }, false},
		{"zero budget", func(c *Config) { c.ReadAheadBudget = 0 }, false},
		{"negative antic", func(c *Config) { c.AnticWait = -1 }, false},
		{"negative deadline", func(c *Config) { c.Deadline = -1 }, false},
		{"zero slice", func(c *Config) { c.CFQSliceBytes = 0 }, false},
		{"negative hit time", func(c *Config) { c.HitTime = -1 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(Noop)
			if tt.mutate != nil {
				tt.mutate(&cfg)
			}
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	d, err := disk.New(eng, disk.ProfileWD800JD(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, d, DefaultConfig(Noop)); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(eng, nil, DefaultConfig(Noop)); err == nil {
		t.Error("nil disk accepted")
	}
	if _, err := New(eng, d, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		Noop: "noop", Elevator: "elevator", Anticipatory: "anticipatory", CFQ: "cfq",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if Policy(42).String() == "" {
		t.Error("unknown policy should format")
	}
}

func TestReadValidation(t *testing.T) {
	_, s, d := newSched(t, Noop, nil)
	if err := s.Read(0, -1, 4096, nil); err == nil {
		t.Error("negative offset accepted")
	}
	if err := s.Read(0, 0, 0, nil); err == nil {
		t.Error("zero length accepted")
	}
	if err := s.Read(0, d.Capacity(), 4096, nil); err == nil {
		t.Error("out-of-range accepted")
	}
}

func TestReadaheadWindowHits(t *testing.T) {
	eng, s, _ := newSched(t, Noop, nil)
	var completions int
	read := func(off int64) {
		if err := s.Read(1, off, 4096, func() { completions++ }); err != nil {
			t.Fatal(err)
		}
	}
	// First read misses and fetches a window; run to completion, then
	// the next sequential reads hit the window.
	read(0)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i < 16; i++ {
		read(i * 4096)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.stats
	if completions != 16 {
		t.Fatalf("completions = %d", completions)
	}
	if st.DiskReads != 1 {
		t.Errorf("DiskReads = %d, want 1 (window covers 16 reads)", st.DiskReads)
	}
	if st.CacheHits != 15 {
		t.Errorf("CacheHits = %d, want 15", st.CacheHits)
	}
}

func TestRandomReaderGetsNoWindow(t *testing.T) {
	eng, s, d := newSched(t, Noop, nil)
	// Two scattered reads from the same process: no sequential pattern,
	// so each fetch is exactly the request.
	if err := s.Read(1, 0, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(1, d.Capacity()/2, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.stats
	// The first read of a fresh process starts at lastEnd==0==off, so it
	// is treated as sequential; the second (scattered) read must not be.
	if st.DiskBytes > s.window()+4096 {
		t.Errorf("DiskBytes = %d; scattered read fetched a window", st.DiskBytes)
	}
}

func TestWindowShrinksUnderPressure(t *testing.T) {
	_, s, _ := newSched(t, Noop, func(c *Config) {
		c.ReadAheadBudget = 1 << 20
		c.MaxWindow = 128 << 10
		c.MinWindow = 16 << 10
	})
	// One process: full window.
	if err := s.Read(0, 0, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.window(); got != 128<<10 {
		t.Errorf("window with 1 proc = %d, want 128K", got)
	}
	// 64 processes: 1MB/64 = 16K.
	for p := 1; p < 64; p++ {
		if err := s.Read(p, int64(p)*1<<20, 4096, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.window(); got != 16<<10 {
		t.Errorf("window with 64 procs = %d, want 16K", got)
	}
	// 256 processes: clamped at MinWindow.
	for p := 64; p < 256; p++ {
		if err := s.Read(p, int64(p)*64<<20, 4096, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.window(); got != 16<<10 {
		t.Errorf("window with 256 procs = %d, want MinWindow", got)
	}
}

func TestElevatorOrdersByOffset(t *testing.T) {
	eng, s, _ := newSched(t, Elevator, nil)
	var order []int64
	// Queue scattered one-shot reads from distinct processes while the
	// disk is busy with the first.
	offs := []int64{0, 50 << 20, 10 << 20, 30 << 20}
	for i, off := range offs {
		off := off
		if err := s.Read(i, off, 4096, func() { order = append(order, off) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 10 << 20, 30 << 20, 50 << 20}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAnticipationRewarded(t *testing.T) {
	eng, s, _ := newSched(t, Anticipatory, nil)
	// Process 0 reads sequentially with sub-antic think time; process 1
	// has a distant pending request. AS should keep serving process 0.
	var p0done int
	var issue0 func()
	issue0 = func() {
		off := int64(p0done) * 128 << 10 // window-sized strides: each misses
		if err := s.Read(0, off, 4096, func() {
			p0done++
			if p0done < 8 {
				eng.Schedule(time.Millisecond, issue0) // within AnticWait
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	issue0()
	if err := s.Read(1, 40<<30, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.stats
	if st.AnticWaits == 0 {
		t.Error("anticipatory never idled the disk")
	}
	if st.AnticHits == 0 {
		t.Error("anticipation never rewarded")
	}
	if p0done != 8 {
		t.Errorf("p0done = %d", p0done)
	}
}

func TestAnticipationDeadlineSwitches(t *testing.T) {
	eng, s, _ := newSched(t, Anticipatory, func(c *Config) {
		c.Deadline = 20 * time.Millisecond
	})
	// Process 0 streams; process 1's single request must not starve.
	var p1done bool
	var p0count int
	var issue0 func()
	issue0 = func() {
		off := int64(p0count) * 128 << 10
		if err := s.Read(0, off, 4096, func() {
			p0count++
			if !p1done && p0count < 100 {
				eng.Schedule(time.Millisecond, issue0)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	issue0()
	if err := s.Read(1, 40<<30, 4096, func() { p1done = true }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !p1done {
		t.Error("aged request starved")
	}
	if p0count >= 100 {
		t.Error("process 0 ran to its cap; deadline never bound")
	}
}

// runStreams emulates S xdd processes doing 4 KB sequential sync reads,
// each over its own 1 GB-spaced region, and returns aggregate MB/s.
func runStreams(t *testing.T, p Policy, streams, reads int) float64 {
	t.Helper()
	eng, s, d := newSched(t, p, nil)
	spacing := d.Capacity() / int64(streams)
	spacing -= spacing % 512
	var bytes int64
	for proc := 0; proc < streams; proc++ {
		proc := proc
		base := int64(proc) * spacing
		var n int
		var issue func()
		issue = func() {
			if n >= reads {
				return
			}
			off := base + int64(n)*4096
			n++
			if err := s.Read(proc, off, 4096, func() {
				bytes += 4096
				issue()
			}); err != nil {
				t.Fatal(err)
			}
		}
		issue()
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Now() == 0 {
		return 0
	}
	return float64(bytes) / eng.Now().Seconds() / 1e6
}

func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-stream sweep")
	}
	// Anticipatory beats noop under many streams, and every policy
	// degrades significantly from few to many streams (Fig. 2).
	anticFew := runStreams(t, Anticipatory, 2, 256)
	anticMany := runStreams(t, Anticipatory, 64, 32)
	noopMany := runStreams(t, Noop, 64, 32)
	if anticMany <= noopMany {
		t.Errorf("anticipatory (%.1f MB/s) should beat noop (%.1f MB/s) at 64 streams", anticMany, noopMany)
	}
	if anticFew < 2*anticMany {
		t.Errorf("anticipatory should degrade >=2x from 2 (%.1f) to 64 (%.1f) streams", anticFew, anticMany)
	}
}

func TestCFQServesAllProcesses(t *testing.T) {
	eng, s, d := newSched(t, CFQ, nil)
	spacing := d.Capacity() / 4
	spacing -= spacing % 512
	done := make(map[int]int)
	for proc := 0; proc < 4; proc++ {
		proc := proc
		base := int64(proc) * spacing
		var n int
		var issue func()
		issue = func() {
			if n >= 8 {
				return
			}
			off := base + int64(n)*4096
			n++
			if err := s.Read(proc, off, 4096, func() {
				done[proc]++
				issue()
			}); err != nil {
				t.Fatal(err)
			}
		}
		issue()
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for proc := 0; proc < 4; proc++ {
		if done[proc] != 8 {
			t.Errorf("proc %d completed %d reads, want 8", proc, done[proc])
		}
	}
}
