package geom

import (
	"testing"
	"testing/quick"
)

func TestNewZoneTableValidation(t *testing.T) {
	ok := []Zone{{Start: 0, Rate: 60e6}, {Start: 500, Rate: 40e6}}
	if _, err := NewZoneTable(1000, ok); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
	bad := []struct {
		name  string
		cap   int64
		zones []Zone
	}{
		{"zero capacity", 0, ok},
		{"empty", 1000, nil},
		{"nonzero first start", 1000, []Zone{{Start: 10, Rate: 1}}},
		{"zero rate", 1000, []Zone{{Start: 0, Rate: 0}}},
		{"start beyond capacity", 1000, []Zone{{Start: 0, Rate: 2}, {Start: 1000, Rate: 1}}},
		{"unsorted", 1000, []Zone{{Start: 0, Rate: 3}, {Start: 500, Rate: 2}, {Start: 400, Rate: 1}}},
		{"rate increases inward", 1000, []Zone{{Start: 0, Rate: 1}, {Start: 500, Rate: 2}}},
	}
	for _, tt := range bad {
		if _, err := NewZoneTable(tt.cap, tt.zones); err == nil {
			t.Errorf("%s accepted", tt.name)
		}
	}
}

func TestZoneTableLookup(t *testing.T) {
	zt, err := NewZoneTable(1000, []Zone{
		{Start: 0, Rate: 60},
		{Start: 400, Rate: 50},
		{Start: 800, Rate: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		off  int64
		rate float64
	}{
		{0, 60}, {399, 60}, {400, 50}, {799, 50}, {800, 40}, {999, 40},
		{-5, 60}, {5000, 40}, // clamped
	}
	for _, c := range cases {
		if got := zt.Rate(c.off); got != c.rate {
			t.Errorf("Rate(%d) = %v, want %v", c.off, got, c.rate)
		}
	}
	if len(zt.zones) != 3 {
		t.Errorf("zones = %d", len(zt.zones))
	}
}

// uniformZones builds an n-zone table whose rates step linearly from
// outer to inner.
func uniformZones(capacity int64, n int, outer, inner float64) []Zone {
	zones := make([]Zone, n)
	for i := range zones {
		zones[i] = Zone{
			Start: capacity * int64(i) / int64(n),
			Rate:  outer + float64(i)/float64(n-1)*(inner-outer),
		}
	}
	return zones
}

func TestGeometryWithZoneTable(t *testing.T) {
	cfg := WD800JD()
	cfg.Zones = uniformZones(cfg.Capacity, 16, cfg.MediaRateOuter, cfg.MediaRateInner)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.zones.zones) != 16 {
		t.Errorf("zones = %d", len(g.zones.zones))
	}
	if got := g.MediaRate(0); got != cfg.MediaRateOuter {
		t.Errorf("outer rate = %v", got)
	}
	if got := g.MediaRate(cfg.Capacity - 1); got != cfg.MediaRateInner {
		t.Errorf("inner rate = %v", got)
	}
	// Stepped: two offsets within one zone share a rate.
	zoneWidth := cfg.Capacity / 16
	if g.MediaRate(10) != g.MediaRate(zoneWidth-512) {
		t.Error("rate varies within a zone")
	}
	// Bad zone config propagates from New.
	cfg.Zones = []Zone{{Start: 5, Rate: 1}}
	if _, err := New(cfg); err == nil {
		t.Error("invalid zone table accepted by New")
	}
}

func TestZoneRateMonotonicProperty(t *testing.T) {
	zt, err := NewZoneTable(1<<30, uniformZones(1<<30, 20, 100e6, 50e6))
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint32) bool {
		oa, ob := int64(a), int64(b)
		if oa > ob {
			oa, ob = ob, oa
		}
		return zt.Rate(oa) >= zt.Rate(ob)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
