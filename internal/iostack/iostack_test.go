package iostack

import (
	"testing"
	"time"

	"seqstream/internal/controller"
	"seqstream/internal/disk"
	"seqstream/internal/sim"
)

func newHost(t *testing.T, cfg Config) (*sim.Engine, *Host) {
	t.Helper()
	eng := sim.NewEngine()
	h, err := New(eng, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng, h
}

func TestConfigShapes(t *testing.T) {
	tests := []struct {
		name  string
		cfg   Config
		disks int
		ctrls int
	}{
		{"base", BaseConfig(Options{}), 1, 1},
		{"medium", build(2, 4, Options{}), 8, 2},
		{"large", LargeConfig(Options{}), 64, 16},
		{"testbed8", Testbed8Config(Options{}), 8, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			_, h := newHost(t, tt.cfg)
			if h.NumDisks() != tt.disks {
				t.Errorf("NumDisks = %d, want %d", h.NumDisks(), tt.disks)
			}
			if h.Controllers() != tt.ctrls {
				t.Errorf("Controllers = %d, want %d", h.Controllers(), tt.ctrls)
			}
		})
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("empty config accepted")
	}
	cfg := BaseConfig(Options{})
	cfg.Controllers[0].Disks = nil
	if err := cfg.Validate(); err == nil {
		t.Error("controller without disks accepted")
	}
	cfg = BaseConfig(Options{})
	cfg.Controllers[0].Disks[0].InterfaceRate = -1
	if err := cfg.Validate(); err == nil {
		t.Error("invalid disk accepted")
	}
	cfg = BaseConfig(Options{})
	cfg.Controllers[0].Controller.HostRate = 0
	if err := cfg.Validate(); err == nil {
		t.Error("invalid controller accepted")
	}
	cfg = BaseConfig(Options{})
	cfg.CPU.CopyRate = -1
	if err := cfg.Validate(); err == nil {
		t.Error("invalid CPU model accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, BaseConfig(Options{})); err == nil {
		t.Error("nil engine accepted")
	}
	eng := sim.NewEngine()
	if _, err := New(eng, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestOptionsOverrides(t *testing.T) {
	custom := Options{
		DiskConfig: func(seed uint64) disk.Config {
			c := disk.ProfileWD800JD(seed)
			c.CacheSize = 4 << 20
			return c
		},
		ControllerConfig: func() controller.Config {
			c := controller.ProfileBC4810()
			c.HostRate = 200e6
			return c
		},
		CPU: &CPUModel{PerRequest: time.Millisecond},
	}
	cfg := BaseConfig(custom)
	if cfg.Controllers[0].Disks[0].CacheSize != 4<<20 {
		t.Error("disk override ignored")
	}
	if cfg.Controllers[0].Controller.HostRate != 200e6 {
		t.Error("controller override ignored")
	}
	if cfg.CPU.PerRequest != time.Millisecond {
		t.Error("CPU override ignored")
	}
}

func TestReadAtCompletes(t *testing.T) {
	eng, h := newHost(t, BaseConfig(Options{}))
	var res *Result
	if err := h.ReadAt(0, 0, 64<<10, func(r Result) { res = &r }); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no completion")
	}
	if res.End <= res.Start {
		t.Error("nonpositive latency")
	}
}

func TestReadAtBadDisk(t *testing.T) {
	_, h := newHost(t, BaseConfig(Options{}))
	if err := h.ReadAt(-1, 0, 4096, nil); err == nil {
		t.Error("negative disk accepted")
	}
	if err := h.ReadAt(1, 0, 4096, nil); err == nil {
		t.Error("out-of-range disk accepted")
	}
	if err := h.ReadAt(0, -4, 4096, nil); err == nil {
		t.Error("bad offset accepted")
	}
}

func TestGlobalDiskMapping(t *testing.T) {
	eng, h := newHost(t, build(2, 4, Options{}))
	// Reads on every global disk id must complete on distinct drives.
	done := make([]bool, h.NumDisks())
	for i := 0; i < h.NumDisks(); i++ {
		i := i
		if err := h.ReadAt(i, 0, 4096, func(Result) { done[i] = true }); err != nil {
			t.Fatalf("ReadAt(%d): %v", i, err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ok := range done {
		if !ok {
			t.Errorf("disk %d never completed", i)
		}
	}
	if h.DiskCapacity(0) != h.Disk(0).Capacity() {
		t.Error("capacity accessor mismatch")
	}
	// Drives on different controllers are distinct objects.
	if h.Disk(0) == h.Disk(4) {
		t.Error("controller 0 and 1 share a drive")
	}
}

func TestCPUSerialization(t *testing.T) {
	eng, h := newHost(t, BaseConfig(Options{}))
	var ends []sim.Time
	h.CPUWork(10*time.Millisecond, func() { ends = append(ends, eng.Now()) })
	h.CPUWork(10*time.Millisecond, func() { ends = append(ends, eng.Now()) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ends[0] != 10*time.Millisecond || ends[1] != 20*time.Millisecond {
		t.Errorf("CPU work ends = %v, want serialized 10ms/20ms", ends)
	}
	h.CPUWork(-5, func() {}) // negative clamps, no panic
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveBuffersRaiseCPUCost(t *testing.T) {
	_, h := newHost(t, BaseConfig(Options{}))
	h.SetLiveBuffers(0)
	base := h.requestCPUCost(64 << 10)
	h.SetLiveBuffers(1000)
	loaded := h.requestCPUCost(64 << 10)
	if loaded <= base {
		t.Errorf("cost with 1000 buffers (%v) should exceed base (%v)", loaded, base)
	}
	h.SetLiveBuffers(-5)
	if h.liveBuffers != 0 {
		t.Error("negative live buffers not clamped")
	}
}

func TestParallelDisksScale(t *testing.T) {
	// Eight drives on two controllers should deliver far more aggregate
	// throughput than one drive.
	run := func(cfg Config, disks int) float64 {
		eng, h := newHost(t, cfg)
		const per = 32
		const req = 1 << 20
		var bytes int64
		for d := 0; d < disks; d++ {
			d := d
			var issue func(i int64)
			issue = func(i int64) {
				if i >= per {
					return
				}
				if err := h.ReadAt(d, i*req, req, func(Result) {
					bytes += req
					issue(i + 1)
				}); err != nil {
					t.Fatal(err)
				}
			}
			issue(0)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(bytes) / eng.Now().Seconds() / 1e6
	}
	one := run(BaseConfig(Options{}), 1)
	eight := run(build(2, 4, Options{}), 8)
	if eight < 4*one {
		t.Errorf("8-disk throughput %.1f MB/s should be >= 4x single disk %.1f MB/s", eight, one)
	}
}
