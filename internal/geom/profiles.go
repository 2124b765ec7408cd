package geom

import "time"

// WD800JD returns the geometry of the Western Digital Caviar SE
// WD800JD used in the paper's testbed (§5): 80 GB, 7200 RPM, 8.9 ms
// average seek, and a measured application-level sequential throughput
// of 55-60 MB/s. The seek curve end points are chosen so the sqrt
// model's average matches the published 8.9 ms figure:
// avg = min + (8/15)(max-min).
func WD800JD() Config {
	return Config{
		Capacity:       80 * 1000 * 1000 * 1000 / BlockSize * BlockSize,
		RPM:            7200,
		Cylinders:      90000,
		SeekMin:        1500 * time.Microsecond,
		SeekMax:        15380 * time.Microsecond, // min + 8/15*(max-min) = 8.9ms
		MediaRateOuter: 60e6,
		MediaRateInner: 30e6,
	}
}
