// Package geom models the mechanical geometry of a disk drive: zoned
// logical-to-physical mapping, seek-time curves, rotational latency, and
// per-zone media transfer rates.
//
// The model follows the structure used by workload-driven disk
// simulators (Ruemmler & Wilkes, "An Introduction to Disk Drive
// Modeling"): seek time is a settle-dominated curve in sqrt(distance),
// media rate decreases linearly from the outer to the inner zone, and
// rotational latency is drawn uniformly from one revolution.
package geom

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// BlockSize is the fixed logical block size in bytes.
const BlockSize = 512

// Config describes the mechanical parameters of a drive.
type Config struct {
	// Capacity is the usable size in bytes. Must be a multiple of
	// BlockSize.
	Capacity int64
	// RPM is the spindle speed in revolutions per minute.
	RPM int
	// Cylinders is the number of seek positions.
	Cylinders int
	// SeekMin is a single-track seek (dominated by head settle).
	SeekMin time.Duration
	// SeekMax is a full-stroke seek.
	SeekMax time.Duration
	// MediaRateOuter is the sustained media transfer rate, in bytes per
	// second, at the outermost zone (LBA 0).
	MediaRateOuter float64
	// MediaRateInner is the rate at the innermost zone.
	MediaRateInner float64
	// Zones, when non-empty, replaces the linear outer→inner
	// interpolation with an explicit zone table (validated by New).
	Zones []Zone
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Capacity <= 0:
		return errors.New("geom: capacity must be positive")
	case c.Capacity%BlockSize != 0:
		return fmt.Errorf("geom: capacity %d not a multiple of block size %d", c.Capacity, BlockSize)
	case c.RPM <= 0:
		return errors.New("geom: rpm must be positive")
	case c.Cylinders <= 1:
		return errors.New("geom: need at least 2 cylinders")
	case c.SeekMin < 0 || c.SeekMax < c.SeekMin:
		return errors.New("geom: seek times must satisfy 0 <= min <= max")
	case c.MediaRateOuter <= 0 || c.MediaRateInner <= 0:
		return errors.New("geom: media rates must be positive")
	case c.MediaRateInner > c.MediaRateOuter:
		return errors.New("geom: inner media rate exceeds outer rate")
	}
	return nil
}

// Geometry provides derived timing queries for a validated Config.
type Geometry struct {
	cfg            Config
	bytesPerCyl    float64
	rotationPeriod time.Duration
	zones          *ZoneTable // nil for linear interpolation
}

// New builds a Geometry from a config.
func New(cfg Config) (*Geometry, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Geometry{
		cfg:            cfg,
		bytesPerCyl:    float64(cfg.Capacity) / float64(cfg.Cylinders),
		rotationPeriod: time.Duration(float64(time.Minute) / float64(cfg.RPM)),
	}
	if len(cfg.Zones) > 0 {
		zt, err := NewZoneTable(cfg.Capacity, cfg.Zones)
		if err != nil {
			return nil, err
		}
		g.zones = zt
	}
	return g, nil
}

// Capacity returns the usable size in bytes.
func (g *Geometry) Capacity() int64 { return g.cfg.Capacity }

// RotationPeriod returns the time of one full revolution.
func (g *Geometry) RotationPeriod() time.Duration { return g.rotationPeriod }

// CylinderOf maps a byte offset to its cylinder.
func (g *Geometry) CylinderOf(offset int64) int {
	if offset < 0 {
		return 0
	}
	if offset >= g.cfg.Capacity {
		return g.cfg.Cylinders - 1
	}
	return int(float64(offset) / g.bytesPerCyl)
}

// SeekTime returns the head-movement time between two cylinders using a
// sqrt-distance curve: t = min + (max-min) * sqrt(d / (C-1)).
// A zero-distance seek costs nothing.
func (g *Geometry) SeekTime(fromCyl, toCyl int) time.Duration {
	d := fromCyl - toCyl
	if d < 0 {
		d = -d
	}
	if d == 0 {
		return 0
	}
	frac := math.Sqrt(float64(d) / float64(g.cfg.Cylinders-1))
	return g.cfg.SeekMin + time.Duration(frac*float64(g.cfg.SeekMax-g.cfg.SeekMin))
}

// MediaRate returns the sustained media transfer rate, in bytes per
// second, at the given byte offset: the zone table's rate when one is
// configured, else a linear interpolation between the outer and inner
// rates.
func (g *Geometry) MediaRate(offset int64) float64 {
	if g.zones != nil {
		return g.zones.Rate(offset)
	}
	if offset < 0 {
		offset = 0
	}
	if offset > g.cfg.Capacity {
		offset = g.cfg.Capacity
	}
	frac := float64(offset) / float64(g.cfg.Capacity)
	return g.cfg.MediaRateOuter + frac*(g.cfg.MediaRateInner-g.cfg.MediaRateOuter)
}

// TransferTime returns the media time to read or write n bytes starting
// at offset, using the rate at the start of the transfer.
func (g *Geometry) TransferTime(offset int64, n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	rate := g.MediaRate(offset)
	return time.Duration(float64(n) / rate * float64(time.Second))
}
