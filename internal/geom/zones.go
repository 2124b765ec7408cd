package geom

import (
	"errors"
	"fmt"
	"sort"
)

// Zone is one recording zone: a contiguous byte range with a constant
// media transfer rate. Real drives step the rate down in 15-30 zones
// from the outer to the inner diameter.
type Zone struct {
	// Start is the first byte offset of the zone.
	Start int64
	// Rate is the sustained media rate in bytes/second.
	Rate float64
}

// ZoneTable maps offsets to media rates using an explicit zone list.
type ZoneTable struct {
	zones []Zone
	cap   int64
}

// NewZoneTable validates and builds a table covering [0, capacity).
// Zones must start at 0, be sorted, strictly increasing in Start, and
// have positive, non-increasing rates (outer zones are faster).
func NewZoneTable(capacity int64, zones []Zone) (*ZoneTable, error) {
	if capacity <= 0 {
		return nil, errors.New("geom: capacity must be positive")
	}
	if len(zones) == 0 {
		return nil, errors.New("geom: need at least one zone")
	}
	if zones[0].Start != 0 {
		return nil, errors.New("geom: first zone must start at offset 0")
	}
	for i, z := range zones {
		if z.Rate <= 0 {
			return nil, fmt.Errorf("geom: zone %d rate must be positive", i)
		}
		if z.Start >= capacity {
			return nil, fmt.Errorf("geom: zone %d starts beyond capacity", i)
		}
		if i > 0 {
			if z.Start <= zones[i-1].Start {
				return nil, fmt.Errorf("geom: zone %d not sorted", i)
			}
			if z.Rate > zones[i-1].Rate {
				return nil, fmt.Errorf("geom: zone %d rate increases inward", i)
			}
		}
	}
	out := make([]Zone, len(zones))
	copy(out, zones)
	return &ZoneTable{zones: out, cap: capacity}, nil
}

// Rate returns the media rate at a byte offset (clamped to the table).
func (t *ZoneTable) Rate(off int64) float64 {
	if off < 0 {
		off = 0
	}
	if off >= t.cap {
		off = t.cap - 1
	}
	i := sort.Search(len(t.zones), func(i int) bool { return t.zones[i].Start > off })
	return t.zones[i-1].Rate
}
