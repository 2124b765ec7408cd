package core

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(64<<20, 8<<20)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cfg.DispatchSize != 8 {
		t.Errorf("DispatchSize = %d, want 8 (64MB / 8MB / N=1)", cfg.DispatchSize)
	}
	if cfg.RequestsPerStream != 1 {
		t.Errorf("N = %d", cfg.RequestsPerStream)
	}
	if cfg.Policy == nil {
		t.Error("nil policy after defaults")
	}
	if floor := memoryFloor(cfg); floor != 64<<20 {
		t.Errorf("D*R*N = %d", floor)
	}
}

// memoryFloor returns D*R*N, the memory the paper's invariant requires
// for the configured dispatch set.
func memoryFloor(c Config) int64 {
	return int64(c.DispatchSize) * c.ReadAhead * int64(c.RequestsPerStream)
}

func TestDeriveDispatch(t *testing.T) {
	tests := []struct {
		m, r int64
		n    int
		want int
	}{
		{800 << 20, 8 << 20, 1, 100},
		{16 << 20, 8 << 20, 1, 2},
		{8 << 20, 8 << 20, 1, 1},
		{1 << 20, 8 << 20, 1, 1}, // floor of 1
		{64 << 20, 512 << 10, 128, 1},
		{0, 0, 0, 1},
	}
	for _, tt := range tests {
		if got := DeriveDispatch(tt.m, tt.r, tt.n); got != tt.want {
			t.Errorf("DeriveDispatch(%d,%d,%d) = %d, want %d", tt.m, tt.r, tt.n, got, tt.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	base := func() Config {
		c := DefaultConfig(64<<20, 1<<20)
		return c
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero D", func(c *Config) { c.DispatchSize = 0 }},
		{"zero R", func(c *Config) { c.ReadAhead = 0 }},
		{"zero N", func(c *Config) { c.RequestsPerStream = 0 }},
		{"memory below R", func(c *Config) { c.Memory = c.ReadAhead - 1 }},
		{"zero block", func(c *Config) { c.BlockSize = 0 }},
		{"single-block region", func(c *Config) { c.RegionBlocks = 1 }},
		{"threshold 1", func(c *Config) { c.DetectThreshold = 1 }},
		{"threshold over region", func(c *Config) { c.DetectThreshold = c.RegionBlocks + 1 }},
		{"zero gc period", func(c *Config) { c.GCPeriod = 0 }},
		{"zero buffer timeout", func(c *Config) { c.BufferTimeout = 0 }},
		{"zero stream timeout", func(c *Config) { c.StreamTimeout = 0 }},
		{"nil policy", func(c *Config) { c.Policy = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Errorf("base config rejected: %v", err)
	}
}

// TestConfigValidateRejects drives each Validate branch that
// TestConfigValidate leaves out with one invalid config, checking that
// the branch itself (not an earlier one) rejects it, and accepts the
// valid boundary of every branch.
func TestConfigValidateRejects(t *testing.T) {
	replicated := func(c *Config) {
		c.Replicas = 2
		c.WindowSpan = time.Minute
	}
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string // error substring; empty means the config is valid
	}{
		{"D 1", func(c *Config) { c.DispatchSize = 1 }, ""},
		{"memory equals R", func(c *Config) { c.Memory = c.ReadAhead }, ""},
		{"two-block region", func(c *Config) { c.RegionBlocks, c.DetectThreshold = 2, 2 }, ""},
		{"threshold equals region", func(c *Config) { c.DetectThreshold = c.RegionBlocks }, ""},
		{"zero evict idle", func(c *Config) { c.EvictIdle = 0 }, "GC periods"},
		{"negative near-seq window", func(c *Config) { c.NearSeqWindow = -1 }, "near-sequential"},
		{"negative fetch timeout", func(c *Config) { c.FetchTimeout = -1 }, "fetch timeout"},
		{"negative retries", func(c *Config) { c.FetchRetries = -1 }, "fetch retries"},
		{"retries without backoff", func(c *Config) { c.FetchRetries = 1 }, "retry backoff"},
		{"retries with backoff", func(c *Config) { c.FetchRetries, c.RetryBackoff = 1, time.Nanosecond }, ""},
		{"negative breaker", func(c *Config) { c.BreakerThreshold = -1 }, "breaker threshold"},
		{"breaker without cooldown", func(c *Config) { c.BreakerThreshold = 1 }, "breaker cooldown"},
		{"breaker with cooldown", func(c *Config) { c.BreakerThreshold, c.BreakerCooldown = 1, time.Nanosecond }, ""},
		{"negative shards", func(c *Config) { c.Shards = -1 }, "shard count"},
		{"negative window span", func(c *Config) { c.WindowSpan = -1 }, "window span"},
		{"negative replicas", func(c *Config) { c.Replicas = -1 }, "replicas must be"},
		{"negative steer factor", func(c *Config) { c.SteerFactor = -1 }, "steer factor"},
		{"steering without replicas", func(c *Config) { c.SteerFactor, c.WindowSpan = 2, time.Minute }, "steering requires Replicas"},
		{"steering without windows", func(c *Config) { c.SteerFactor, c.Replicas = 2, 2 }, "steering requires WindowSpan"},
		{"steering", func(c *Config) { replicated(c); c.SteerFactor = 2 }, ""},
		{"negative quantile", func(c *Config) { c.SpecQuantile = -0.5 }, "speculation quantile"},
		{"quantile 1", func(c *Config) { replicated(c); c.SpecQuantile = 1 }, "speculation quantile"},
		{"speculation without replicas", func(c *Config) { c.SpecQuantile, c.WindowSpan = 0.9, time.Minute }, "speculation requires Replicas"},
		{"speculation without windows", func(c *Config) { c.SpecQuantile, c.Replicas = 0.9, 2 }, "speculation requires WindowSpan"},
		{"quantile just below 1", func(c *Config) { replicated(c); c.SpecQuantile = math.Nextafter(1, 0) }, ""},
		{"negative spec samples", func(c *Config) { c.SpecMinSamples = -1 }, "min samples"},
		{"negative spec delay", func(c *Config) { c.SpecMinDelay = -1 }, "min delay"},
		{"negative SLO target", func(c *Config) { c.SLOTarget = -1 }, "SLO target"},
		{"negative late factor", func(c *Config) { c.SLOLateFactor = -1 }, "SLO parameters"},
		{"negative objective", func(c *Config) { c.SLOObjective = -1 }, "SLO parameters"},
		{"negative SLO samples", func(c *Config) { c.SLOMinSamples = -1 }, "SLO parameters"},
		{"negative SLO window", func(c *Config) { c.SLOMidWindow = -1 }, "burn-rate windows"},
		{"SLO on", func(c *Config) { c.SLOTarget = time.Millisecond }, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(64<<20, 1<<20)
			tt.mutate(&cfg)
			err := cfg.Validate()
			switch {
			case tt.want == "" && err != nil:
				t.Errorf("valid config rejected: %v", err)
			case tt.want != "" && err == nil:
				t.Error("invalid config accepted")
			case tt.want != "" && !strings.Contains(err.Error(), tt.want):
				t.Errorf("error %q, want it to mention %q", err, tt.want)
			}
		})
	}
}

func TestApplyDefaultsIdempotent(t *testing.T) {
	cfg := Config{ReadAhead: 1 << 20, Memory: 16 << 20}
	cfg.ApplyDefaults()
	want := cfg
	cfg.ApplyDefaults()
	if cfg.DispatchSize != want.DispatchSize || cfg.BlockSize != want.BlockSize ||
		cfg.GCPeriod != want.GCPeriod {
		t.Error("ApplyDefaults not idempotent")
	}
	if cfg.DispatchSize != 16 {
		t.Errorf("derived D = %d, want 16", cfg.DispatchSize)
	}
	if cfg.BufferTimeout != 30*time.Second || cfg.StreamTimeout != 60*time.Second {
		t.Error("timeout defaults wrong")
	}
}

func TestExplicitDispatchPreserved(t *testing.T) {
	cfg := Config{DispatchSize: 3, ReadAhead: 1 << 20, Memory: 100 << 20}
	cfg.ApplyDefaults()
	if cfg.DispatchSize != 3 {
		t.Errorf("explicit D overwritten: %d", cfg.DispatchSize)
	}
}
