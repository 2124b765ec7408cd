package geom

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func testConfig() Config { return WD800JD() }

func mustGeom(t *testing.T) *Geometry {
	t.Helper()
	g, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", func(c *Config) {}, true},
		{"zero capacity", func(c *Config) { c.Capacity = 0 }, false},
		{"negative capacity", func(c *Config) { c.Capacity = -1 }, false},
		{"unaligned capacity", func(c *Config) { c.Capacity = BlockSize + 1 }, false},
		{"zero rpm", func(c *Config) { c.RPM = 0 }, false},
		{"one cylinder", func(c *Config) { c.Cylinders = 1 }, false},
		{"negative seek", func(c *Config) { c.SeekMin = -1 }, false},
		{"max below min", func(c *Config) { c.SeekMax = c.SeekMin - 1 }, false},
		{"zero outer rate", func(c *Config) { c.MediaRateOuter = 0 }, false},
		{"zero inner rate", func(c *Config) { c.MediaRateInner = 0 }, false},
		{"inner above outer", func(c *Config) { c.MediaRateInner = c.MediaRateOuter * 2 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() err = %v, want ok=%v", err, tt.ok)
			}
			if _, err2 := New(cfg); (err2 == nil) != tt.ok {
				t.Errorf("New() err = %v, want ok=%v", err2, tt.ok)
			}
		})
	}
}

func TestRotation(t *testing.T) {
	g := mustGeom(t)
	// 7200 RPM => 8.333 ms per revolution.
	rpm := float64(g.cfg.RPM)
	want := time.Duration(float64(time.Minute) / rpm)
	if g.RotationPeriod() != want {
		t.Errorf("RotationPeriod = %v, want %v", g.RotationPeriod(), want)
	}
}

func TestCylinderOfBounds(t *testing.T) {
	g := mustGeom(t)
	if c := g.CylinderOf(-100); c != 0 {
		t.Errorf("CylinderOf(-100) = %d, want 0", c)
	}
	if c := g.CylinderOf(0); c != 0 {
		t.Errorf("CylinderOf(0) = %d, want 0", c)
	}
	if c := g.CylinderOf(g.Capacity()); c != g.cfg.Cylinders-1 {
		t.Errorf("CylinderOf(capacity) = %d, want last", c)
	}
	if c := g.CylinderOf(g.Capacity() * 2); c != g.cfg.Cylinders-1 {
		t.Errorf("CylinderOf(beyond) = %d, want last", c)
	}
}

func TestCylinderOfMonotonic(t *testing.T) {
	g := mustGeom(t)
	f := func(a, b uint32) bool {
		oa := int64(a) % g.Capacity()
		ob := int64(b) % g.Capacity()
		if oa > ob {
			oa, ob = ob, oa
		}
		return g.CylinderOf(oa) <= g.CylinderOf(ob)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeekTime(t *testing.T) {
	g := mustGeom(t)
	cfg := g.cfg
	if s := g.SeekTime(100, 100); s != 0 {
		t.Errorf("zero-distance seek = %v, want 0", s)
	}
	one := g.SeekTime(0, 1)
	if one < cfg.SeekMin {
		t.Errorf("one-track seek %v below SeekMin %v", one, cfg.SeekMin)
	}
	full := g.SeekTime(0, cfg.Cylinders-1)
	if full != cfg.SeekMax {
		t.Errorf("full-stroke seek = %v, want %v", full, cfg.SeekMax)
	}
	// Symmetry.
	if g.SeekTime(10, 5000) != g.SeekTime(5000, 10) {
		t.Error("seek not symmetric")
	}
}

func TestSeekTimeMonotonicInDistance(t *testing.T) {
	g := mustGeom(t)
	c := g.cfg.Cylinders
	f := func(a, b uint32) bool {
		da := int(a) % c
		db := int(b) % c
		if da > db {
			da, db = db, da
		}
		return g.SeekTime(0, da) <= g.SeekTime(0, db)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// avgSeekTime returns the expected seek time between two independently
// uniform positions. For the sqrt curve the expected value of sqrt(d/C)
// over uniform pairs is 8/15 ≈ 0.533 (E[sqrt(|X-Y|)] with X, Y uniform
// on [0,1] equals 8/15).
func avgSeekTime(g *Geometry) time.Duration {
	const expectedSqrtDist = 8.0 / 15.0
	return g.cfg.SeekMin + time.Duration(expectedSqrtDist*float64(g.cfg.SeekMax-g.cfg.SeekMin))
}

func TestAvgSeekTimeMatchesPublishedSpec(t *testing.T) {
	g := mustGeom(t)
	avg := avgSeekTime(g)
	// The WD800JD datasheet average is 8.9 ms; the profile is tuned to it.
	want := 8900 * time.Microsecond
	diff := avg - want
	if diff < 0 {
		diff = -diff
	}
	if diff > 100*time.Microsecond {
		t.Errorf("average seek = %v, want within 0.1ms of %v", avg, want)
	}
}

func TestAvgSeekMatchesEmpiricalMean(t *testing.T) {
	// The closed form 8/15 should match a Monte-Carlo estimate of the
	// sqrt curve over random cylinder pairs.
	g := mustGeom(t)
	c := g.cfg.Cylinders
	var sum time.Duration
	const n = 20000
	state := uint64(12345)
	next := func() int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % c
	}
	for i := 0; i < n; i++ {
		sum += g.SeekTime(next(), next())
	}
	mean := float64(sum) / n
	want := float64(avgSeekTime(g))
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("empirical mean %v vs analytic %v", time.Duration(mean), time.Duration(want))
	}
}

func TestMediaRateInterpolation(t *testing.T) {
	g := mustGeom(t)
	cfg := g.cfg
	if r := g.MediaRate(0); r != cfg.MediaRateOuter {
		t.Errorf("MediaRate(0) = %v, want outer %v", r, cfg.MediaRateOuter)
	}
	if r := g.MediaRate(cfg.Capacity); r != cfg.MediaRateInner {
		t.Errorf("MediaRate(cap) = %v, want inner %v", r, cfg.MediaRateInner)
	}
	mid := g.MediaRate(cfg.Capacity / 2)
	wantMid := (cfg.MediaRateOuter + cfg.MediaRateInner) / 2
	if math.Abs(mid-wantMid)/wantMid > 0.001 {
		t.Errorf("MediaRate(mid) = %v, want %v", mid, wantMid)
	}
	// Clamping.
	if g.MediaRate(-5) != cfg.MediaRateOuter {
		t.Error("negative offset should clamp to outer rate")
	}
	if g.MediaRate(cfg.Capacity*3) != cfg.MediaRateInner {
		t.Error("offset beyond capacity should clamp to inner rate")
	}
}

func TestMediaRateMonotonicDecreasing(t *testing.T) {
	g := mustGeom(t)
	f := func(a, b uint32) bool {
		oa := int64(a) % g.Capacity()
		ob := int64(b) % g.Capacity()
		if oa > ob {
			oa, ob = ob, oa
		}
		return g.MediaRate(oa) >= g.MediaRate(ob)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransferTime(t *testing.T) {
	g := mustGeom(t)
	if d := g.TransferTime(0, 0); d != 0 {
		t.Errorf("zero transfer = %v", d)
	}
	if d := g.TransferTime(0, -100); d != 0 {
		t.Errorf("negative transfer = %v", d)
	}
	// 60 MB at 60 MB/s outer rate is ~1 s.
	d := g.TransferTime(0, 60e6)
	if math.Abs(float64(d-time.Second)) > float64(10*time.Millisecond) {
		t.Errorf("TransferTime(60MB) = %v, want ~1s", d)
	}
	// Inner transfers are slower.
	if g.TransferTime(g.Capacity()-1, 1<<20) <= g.TransferTime(0, 1<<20) {
		t.Error("inner-zone transfer should be slower than outer")
	}
}

func TestSeekTimeBytes(t *testing.T) {
	g := mustGeom(t)
	seek := func(from, to int64) time.Duration { return g.SeekTime(g.CylinderOf(from), g.CylinderOf(to)) }
	if d := seek(0, 0); d != 0 {
		t.Errorf("same-offset seek = %v", d)
	}
	// Offsets within the same cylinder cost nothing.
	if d := seek(0, 100); d != 0 {
		t.Errorf("same-cylinder seek = %v", d)
	}
	far := seek(0, g.Capacity()-1)
	if far != g.cfg.SeekMax {
		t.Errorf("full-span byte seek = %v, want %v", far, g.cfg.SeekMax)
	}
}

func TestProfiles(t *testing.T) {
	if err := WD800JD().Validate(); err != nil {
		t.Errorf("profile invalid: %v", err)
	}
}
