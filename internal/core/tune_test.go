package core

import (
	"testing"
	"time"
)

func TestTuneDefaults(t *testing.T) {
	cfg, err := Tune(NodeSpec{Disks: 1, Memory: 64 << 20, MediaRate: 60e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("tuned config invalid: %v", err)
	}
	// 60MB/s * 13ms * 9 = ~7MB -> rounds to 8MB.
	if cfg.ReadAhead != 8<<20 {
		t.Errorf("R = %d, want 8MB", cfg.ReadAhead)
	}
	if cfg.DispatchSize != 8 {
		t.Errorf("D = %d, want 8 (64MB/8MB)", cfg.DispatchSize)
	}
	if cfg.RequestsPerStream != 1 {
		t.Errorf("N = %d", cfg.RequestsPerStream)
	}
}

func TestTuneCapsRToMemoryPerDisk(t *testing.T) {
	cfg, err := Tune(NodeSpec{Disks: 8, Memory: 16 << 20, MediaRate: 60e6})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ReadAhead > 2<<20 {
		t.Errorf("R = %d, must fit one buffer per disk in 16MB", cfg.ReadAhead)
	}
	if cfg.DispatchSize < 8 {
		t.Errorf("D = %d, want at least one per disk", cfg.DispatchSize)
	}
	if floor := memoryFloor(cfg); floor > cfg.Memory*2 {
		t.Errorf("floor %d far exceeds memory %d", floor, cfg.Memory)
	}
}

func TestTuneEfficiencyScalesR(t *testing.T) {
	low, err := Tune(NodeSpec{Disks: 1, Memory: 1 << 30, MediaRate: 60e6, Efficiency: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Tune(NodeSpec{Disks: 1, Memory: 1 << 30, MediaRate: 60e6, Efficiency: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if high.ReadAhead <= low.ReadAhead {
		t.Errorf("R at 95%% eff (%d) should exceed R at 50%% (%d)", high.ReadAhead, low.ReadAhead)
	}
}

func TestTuneValidation(t *testing.T) {
	bad := []NodeSpec{
		{Disks: 0, Memory: 1 << 20, MediaRate: 1e6},
		{Disks: 1, Memory: 0, MediaRate: 1e6},
		{Disks: 1, Memory: 1 << 20, MediaRate: 0},
		{Disks: 1, Memory: 1 << 20, MediaRate: 1e6, Efficiency: 1.5},
		{Disks: 4, Memory: 1024, MediaRate: 1e6}, // too little memory
	}
	for i, spec := range bad {
		if _, err := Tune(spec); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

func TestTunePositionBudget(t *testing.T) {
	slow, err := Tune(NodeSpec{Disks: 1, Memory: 1 << 30, MediaRate: 60e6,
		PositionBudget: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Tune(NodeSpec{Disks: 1, Memory: 1 << 30, MediaRate: 60e6,
		PositionBudget: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if slow.ReadAhead <= fast.ReadAhead {
		t.Errorf("slower positioning should demand larger R: %d vs %d", slow.ReadAhead, fast.ReadAhead)
	}
}

func TestTunedConfigDrivesANode(t *testing.T) {
	cfg, err := Tune(NodeSpec{Disks: 1, Memory: 128 << 20, MediaRate: 60e6})
	if err != nil {
		t.Fatal(err)
	}
	n := baseNode(t, cfg)
	mbps := n.runStreams(t, 20, 256)
	if mbps < 25 {
		t.Errorf("tuned node delivered %.1f MB/s with 20 streams, want near max", mbps)
	}
}
