// Package health is the node's online health engine: the four anomaly
// detectors that used to run only offline in cmd/tracetool, rebuilt as
// incremental state machines that consume flight-recorder events one
// at a time — so the same code serves both the offline tool (feed a
// sorted snapshot, read the findings) and the live engine (tail the
// rings through flight cursors and keep the findings current). On top
// of the detectors sits a rollup that combines sliding-window latency
// quantiles, circuit-breaker state, and active anomalies into
// per-disk/per-shard/node verdicts served at /debug/health.
package health

import (
	"fmt"
	"sort"

	"seqstream/internal/flight"
	"seqstream/internal/obs"
)

// Anomaly kinds, one per detector.
const (
	KindRotationStarvation = "rotation-starvation"
	KindMPressure          = "m-pressure"
	KindBreakerFlap        = "breaker-flap"
	KindStragglerFetch     = "straggler-fetch"
)

// NoDisk marks node-wide anomalies not attributed to one disk.
const NoDisk = -1

// Anomaly is one detector finding.
type Anomaly struct {
	// Kind is the detector: KindRotationStarvation, KindMPressure,
	// KindBreakerFlap, or KindStragglerFetch.
	Kind string `json:"kind"`
	// Stream is the affected stream, flight.NoStream for node/disk
	// findings.
	Stream int32 `json:"stream"`
	// Disk is the affected disk, NoDisk for node-wide findings.
	Disk int `json:"disk"`
	// Detail is a human-readable description with the numbers.
	Detail string `json:"detail"`
}

// DetectorConfig tunes the anomaly thresholds. The zero value gets
// ApplyDefaults'd by NewDetectors and Detect.
type DetectorConfig struct {
	// StarveRotations flags a stream that waited in the candidate
	// queue while at least this many rotations happened node-wide
	// (default 64): the §4.2 round-robin should have reached it.
	StarveRotations int
	// StragglerFactor flags a disk whose median fetch latency exceeds
	// this multiple of its shard's median (default 3.0).
	StragglerFactor float64
	// StragglerMinFetches is the minimum per-disk sample size before a
	// disk can be flagged (default 8).
	StragglerMinFetches int
	// EvictChurnRatio flags M-invariant pressure when evicted bytes
	// exceed this fraction of fetched bytes (default 0.10): staged data
	// is being reclaimed before its stream consumes it.
	EvictChurnRatio float64
	// FlapOpens flags a disk whose breaker opened at least this many
	// times (default 2: open→close→open is a flap).
	FlapOpens int
}

// ApplyDefaults fills zero fields.
func (c *DetectorConfig) ApplyDefaults() {
	if c.StarveRotations == 0 {
		c.StarveRotations = 64
	}
	if c.StragglerFactor == 0 {
		c.StragglerFactor = 3.0
	}
	if c.StragglerMinFetches == 0 {
		c.StragglerMinFetches = 8
	}
	if c.EvictChurnRatio == 0 {
		c.EvictChurnRatio = 0.10
	}
	if c.FlapOpens == 0 {
		c.FlapOpens = 2
	}
}

// streamWait is the per-stream rotation-starvation state: how many
// node-wide rotations passed while the stream sat in the candidate
// queue.
type streamWait struct {
	disk       uint16
	waiting    bool
	waitFrom   uint64 // Seq of the enqueue that started the wait
	rotAtWait  int    // node rotation count at that enqueue
	worst      int    // worst completed wait, in rotations
	worstSince uint64 // Seq the worst wait started at
}

// Detectors runs the four anomaly detectors incrementally: feed every
// flight event (in Seq order) through Observe, read the current
// anomalies with Findings at any point. State is bounded: per-stream
// wait entries are dropped when a stream terminates below threshold,
// and fetch latencies are held as power-of-two histogram sketches
// (obs.Histogram) rather than raw samples, so medians are bucket
// upper-bound estimates — the offline tool and the online engine share
// this estimator and therefore agree.
//
// Detectors is not safe for concurrent use; the engine serializes
// access, and the offline path is single-threaded.
type Detectors struct {
	cfg DetectorConfig

	// rotation starvation
	rotations int
	streams   map[int32]*streamWait

	// M pressure
	fetched int64
	evicted int64
	evicts  int

	// breaker flaps
	opens map[uint16]int

	// straggler fetches
	diskLat  map[uint16]*obs.Histogram
	shardLat map[uint16]*obs.Histogram
	shardOf  map[uint16]uint16

	// speculation: duplicates armed against a disk's slow legs, and
	// wins delivered by each replica. A straggling disk with armed
	// speculations is a disk the scheduler is already routing around,
	// which the straggler detail notes.
	specs    map[uint16]int
	specWins map[uint16]int
}

// NewDetectors returns an empty detector set with cfg (defaults
// applied).
func NewDetectors(cfg DetectorConfig) *Detectors {
	cfg.ApplyDefaults()
	return &Detectors{
		cfg:      cfg,
		streams:  make(map[int32]*streamWait),
		opens:    make(map[uint16]int),
		diskLat:  make(map[uint16]*obs.Histogram),
		shardLat: make(map[uint16]*obs.Histogram),
		shardOf:  make(map[uint16]uint16),
		specs:    make(map[uint16]int),
		specWins: make(map[uint16]int),
	}
}

// Observe feeds one event. Events must arrive in Seq order for the
// starvation rotation counts to match the offline analyzer exactly;
// out-of-order delivery only skews those counts, it cannot corrupt
// state.
func (d *Detectors) Observe(e flight.Event) {
	switch e.Op {
	case flight.OpRotate:
		d.rotations++
	case flight.OpFetch:
		d.fetched += e.Length
	case flight.OpEvict:
		d.evicted += e.Length
		d.evicts++
	case flight.OpBreakerOpen:
		d.opens[e.Disk]++
	case flight.OpSpeculate:
		d.specs[e.Disk]++
	case flight.OpSpecWin:
		d.specWins[e.Disk]++
	case flight.OpStaged:
		if e.Dur > 0 {
			if d.diskLat[e.Disk] == nil {
				d.diskLat[e.Disk] = &obs.Histogram{}
			}
			if d.shardLat[e.Shard] == nil {
				d.shardLat[e.Shard] = &obs.Histogram{}
			}
			d.diskLat[e.Disk].Observe(e.Dur)
			d.shardLat[e.Shard].Observe(e.Dur)
			d.shardOf[e.Disk] = e.Shard
		}
	}

	if e.Stream == flight.NoStream {
		return
	}
	switch e.Op {
	case flight.OpEnqueue:
		w := d.streams[e.Stream]
		if w == nil {
			w = &streamWait{disk: e.Disk}
			d.streams[e.Stream] = w
		}
		if !w.waiting {
			w.waiting = true
			w.waitFrom = e.Seq
			w.rotAtWait = d.rotations
		}
	case flight.OpDispatch:
		if w := d.streams[e.Stream]; w != nil && w.waiting {
			w.endWait(d.rotations)
		}
	case flight.OpGC, flight.OpRetire:
		if w := d.streams[e.Stream]; w != nil {
			if w.waiting {
				w.endWait(d.rotations)
			}
			// Terminated below threshold: the stream can never be
			// flagged, drop its state so live memory stays bounded.
			if w.worst < d.cfg.StarveRotations {
				delete(d.streams, e.Stream)
			}
		}
	}
}

// endWait closes the current wait and keeps it if it is the worst.
func (w *streamWait) endWait(rotations int) {
	if n := rotations - w.rotAtWait; n > w.worst {
		w.worst = n
		w.worstSince = w.waitFrom
	}
	w.waiting = false
}

// Findings returns the current anomalies, in the detector order and
// detail format the offline tool has always printed: starvation by
// stream id, then M pressure, breaker flaps by disk, stragglers by
// disk. It does not mutate state and may be called repeatedly.
func (d *Detectors) Findings() []Anomaly {
	var out []Anomaly
	out = append(out, d.findStarvation()...)
	out = append(out, d.findMPressure()...)
	out = append(out, d.findBreakerFlaps()...)
	out = append(out, d.findStragglers()...)
	return out
}

func (d *Detectors) findStarvation() []Anomaly {
	ids := make([]int32, 0, len(d.streams))
	for id := range d.streams {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []Anomaly
	for _, id := range ids {
		w := d.streams[id]
		worst, since := w.worst, w.worstSince
		if w.waiting {
			// An open-ended wait counts against everything seen so far.
			if n := d.rotations - w.rotAtWait; n > worst {
				worst, since = n, w.waitFrom
			}
		}
		if worst >= d.cfg.StarveRotations {
			out = append(out, Anomaly{
				Kind:   KindRotationStarvation,
				Stream: id,
				Disk:   int(w.disk),
				Detail: fmt.Sprintf("stream %d waited through %d rotations (threshold %d) after seq %d",
					id, worst, d.cfg.StarveRotations, since),
			})
		}
	}
	return out
}

func (d *Detectors) findMPressure() []Anomaly {
	if d.fetched == 0 || d.evicts == 0 {
		return nil
	}
	ratio := float64(d.evicted) / float64(d.fetched)
	if ratio < d.cfg.EvictChurnRatio {
		return nil
	}
	return []Anomaly{{
		Kind:   KindMPressure,
		Stream: flight.NoStream,
		Disk:   NoDisk,
		Detail: fmt.Sprintf("%d evictions reclaimed %d of %d fetched bytes (%.1f%%, threshold %.1f%%): staging memory M is under pressure",
			d.evicts, d.evicted, d.fetched, ratio*100, d.cfg.EvictChurnRatio*100),
	}}
}

func (d *Detectors) findBreakerFlaps() []Anomaly {
	disks := make([]uint16, 0, len(d.opens))
	for disk := range d.opens {
		disks = append(disks, disk)
	}
	sort.Slice(disks, func(i, j int) bool { return disks[i] < disks[j] })
	var out []Anomaly
	for _, disk := range disks {
		if d.opens[disk] >= d.cfg.FlapOpens {
			out = append(out, Anomaly{
				Kind:   KindBreakerFlap,
				Stream: flight.NoStream,
				Disk:   int(disk),
				Detail: fmt.Sprintf("disk %d's circuit opened %d times (threshold %d)", disk, d.opens[disk], d.cfg.FlapOpens),
			})
		}
	}
	return out
}

func (d *Detectors) findStragglers() []Anomaly {
	disks := make([]uint16, 0, len(d.diskLat))
	for disk := range d.diskLat {
		disks = append(disks, disk)
	}
	sort.Slice(disks, func(i, j int) bool { return disks[i] < disks[j] })
	var out []Anomaly
	for _, disk := range disks {
		h := d.diskLat[disk]
		n := h.Count()
		if n < int64(d.cfg.StragglerMinFetches) {
			continue
		}
		shard := d.shardOf[disk]
		base := d.shardLat[shard].Quantile(0.5)
		if base <= 0 {
			continue
		}
		m := h.Quantile(0.5)
		if float64(m) >= d.cfg.StragglerFactor*float64(base) {
			detail := fmt.Sprintf("disk %d's median fetch latency %v is %.1fx shard %d's median %v (threshold %.1fx, %d fetches)",
				disk, m, float64(m)/float64(base), shard, base, d.cfg.StragglerFactor, n)
			if s := d.specs[disk]; s > 0 {
				detail += fmt.Sprintf("; %d speculative re-issues armed against it", s)
			}
			out = append(out, Anomaly{
				Kind:   KindStragglerFetch,
				Stream: flight.NoStream,
				Disk:   int(disk),
				Detail: detail,
			})
		}
	}
	return out
}

// DiskSpeculations returns how many speculative duplicates were armed
// against disk's slow fetch legs.
func (d *Detectors) DiskSpeculations(disk uint16) int { return d.specs[disk] }

// DiskSpecWins returns how many speculative legs disk delivered first
// as a replica.
func (d *Detectors) DiskSpecWins(disk uint16) int { return d.specWins[disk] }

// Detect runs all four detectors over an event slice (a snapshot's
// Merged() output, or any event list — it is re-sorted by Seq before
// feeding). This is the offline entry point cmd/tracetool uses; it
// shares every line of detector logic with the online engine.
func Detect(events []flight.Event, cfg DetectorConfig) []Anomaly {
	sorted := append([]flight.Event(nil), events...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	d := NewDetectors(cfg)
	for _, e := range sorted {
		d.Observe(e)
	}
	return d.Findings()
}
