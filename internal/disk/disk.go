// Package disk models a commodity disk drive for discrete-event
// simulation: mechanical service times (seek, rotation, media
// transfer), an on-board cache organized as segments, per-access
// read-ahead into segments, and an internal request queue.
//
// The cache model follows §2.1 of the paper: the cache is divided into
// a number of segments (memory chunks holding contiguous data, similar
// to cache lines); prefetching fills a segment beyond the requested
// data; segments are reclaimed LRU, which reproduces the §3 pathology
// where prefetched-but-unconsumed data is evicted when the stream count
// exceeds the segment count.
package disk

import (
	"errors"
	"fmt"
	"time"

	"seqstream/internal/geom"
	"seqstream/internal/sim"
)

// QueuePolicy selects the order in which the internal disk queue is
// serviced.
type QueuePolicy int

const (
	// FCFS services requests in arrival order (commodity default).
	FCFS QueuePolicy = iota + 1
	// CLook services requests in ascending offset order, wrapping
	// around (a one-directional elevator).
	CLook
)

// String implements fmt.Stringer.
func (p QueuePolicy) String() string {
	switch p {
	case FCFS:
		return "fcfs"
	case CLook:
		return "clook"
	default:
		return fmt.Sprintf("QueuePolicy(%d)", int(p))
	}
}

// Config describes a simulated drive.
type Config struct {
	// Geometry holds the mechanical parameters.
	Geometry geom.Config
	// CacheSize is the total on-board cache in bytes.
	CacheSize int64
	// SegmentSize is the size of one cache segment in bytes. The
	// number of segments is CacheSize/SegmentSize.
	SegmentSize int64
	// ReadAhead is the total number of bytes brought into a segment on
	// a cache miss, counted from the start of the missed request. It is
	// clamped to [request length, SegmentSize]. Setting it equal to the
	// request size disables prefetching (§3.1).
	ReadAhead int64
	// InterfaceRate is the host-interface transfer rate in bytes/s
	// (150 MB/s for SATA-1).
	InterfaceRate float64
	// CommandOverhead is the fixed per-command processing time.
	CommandOverhead time.Duration
	// Policy selects queue ordering; FCFS when zero.
	Policy QueuePolicy
	// Seed seeds the rotational-latency generator.
	Seed uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	switch {
	case c.CacheSize < 0:
		return errors.New("disk: cache size must be >= 0")
	case c.CacheSize > 0 && c.SegmentSize <= 0:
		return errors.New("disk: segment size must be positive when cache present")
	case c.CacheSize > 0 && c.SegmentSize > c.CacheSize:
		return errors.New("disk: segment size exceeds cache size")
	case c.ReadAhead < 0:
		return errors.New("disk: read-ahead must be >= 0")
	case c.InterfaceRate <= 0:
		return errors.New("disk: interface rate must be positive")
	case c.CommandOverhead < 0:
		return errors.New("disk: command overhead must be >= 0")
	}
	return nil
}

// Segments returns the number of cache segments implied by the config.
func (c Config) Segments() int {
	if c.CacheSize <= 0 || c.SegmentSize <= 0 {
		return 0
	}
	return int(c.CacheSize / c.SegmentSize)
}

// Result describes a completed disk request.
type Result struct {
	// Start is when the disk began servicing the request.
	Start sim.Time
	// End is the completion instant.
	End sim.Time
	// CacheHit reports whether the request was served entirely from a
	// cache segment, with no mechanical activity.
	CacheHit bool
}

// Stats accumulates drive-level counters.
type Stats struct {
	Requests     int64
	CacheHits    int64
	Misses       int64
	BytesRead    int64 // bytes delivered to the host
	BytesWritten int64 // bytes written to the platters
	BytesMedia   int64 // bytes moved on the platters (incl. prefetch)
	BusyTime     sim.Time
	SeekTime     sim.Time
	RotTime      sim.Time
}

type pending struct {
	offset int64
	length int64
	write  bool
	done   func(Result)
}

type segment struct {
	start   int64
	end     int64 // exclusive; start==end means invalid
	lastUse sim.Time
	useSeq  uint64
}

// Disk is a simulated drive attached to an event engine. It is not
// safe for concurrent use; all access must happen on the engine's
// event loop, which is single-threaded.
type Disk struct {
	eng  *sim.Engine
	cfg  Config
	g    *geom.Geometry
	rng  *sim.Rand
	segs []segment
	seq  uint64

	queue []pending
	busy  bool

	headCyl    int
	lastEndOff int64 // media position after the last mechanical op
	hasLastEnd bool

	stats Stats
}

// New constructs a disk bound to the engine.
func New(eng *sim.Engine, cfg Config) (*Disk, error) {
	if eng == nil {
		return nil, errors.New("disk: nil engine")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := geom.New(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	if cfg.Policy == 0 {
		cfg.Policy = FCFS
	}
	if cfg.CommandOverhead == 0 {
		cfg.CommandOverhead = 300 * time.Microsecond
	}
	return &Disk{
		eng:  eng,
		cfg:  cfg,
		g:    g,
		rng:  sim.NewRand(cfg.Seed ^ 0xd15c),
		segs: make([]segment, cfg.Segments()),
	}, nil
}

// Stats returns a copy of the accumulated counters.
func (d *Disk) Stats() Stats { return d.stats }

// Capacity returns the usable size in bytes.
func (d *Disk) Capacity() int64 { return d.g.Capacity() }

// ErrOutOfRange is returned through the completion when a request falls
// outside the device.
var ErrOutOfRange = errors.New("disk: request out of range")

// Submit enqueues a read of [offset, offset+length). done is invoked on
// the engine loop when the request completes. Submit panics only via
// the engine; invalid requests are reported by returning an error
// immediately.
func (d *Disk) Submit(offset, length int64, done func(Result)) error {
	return d.submit(offset, length, false, done)
}

// SubmitWrite enqueues a write of [offset, offset+length). Writes pay
// the same mechanical costs as reads (seek, rotation, media transfer)
// and invalidate any cached segments they overlap; the drive performs
// no write caching (write-through, as the §4.4 direct-I/O path
// expects).
func (d *Disk) SubmitWrite(offset, length int64, done func(Result)) error {
	return d.submit(offset, length, true, done)
}

func (d *Disk) submit(offset, length int64, write bool, done func(Result)) error {
	if offset < 0 || length <= 0 || offset+length > d.g.Capacity() {
		return fmt.Errorf("%w: off=%d len=%d cap=%d", ErrOutOfRange, offset, length, d.g.Capacity())
	}
	d.queue = append(d.queue, pending{offset: offset, length: length, write: write, done: done})
	if !d.busy {
		d.startNext()
	}
	return nil
}

// pickNext removes and returns the next request per the queue policy.
func (d *Disk) pickNext() pending {
	idx := 0
	if d.cfg.Policy == CLook && len(d.queue) > 1 {
		// One-directional sweep: smallest offset >= head position, else
		// wrap to the global smallest.
		headOff := d.lastEndOff
		bestAbove, bestAny := -1, 0
		for i, p := range d.queue {
			if p.offset < d.queue[bestAny].offset {
				bestAny = i
			}
			if p.offset >= headOff {
				if bestAbove < 0 || p.offset < d.queue[bestAbove].offset {
					bestAbove = i
				}
			}
		}
		if bestAbove >= 0 {
			idx = bestAbove
		} else {
			idx = bestAny
		}
	}
	p := d.queue[idx]
	d.queue = append(d.queue[:idx], d.queue[idx+1:]...)
	return p
}

// startNext begins servicing the head of the queue.
func (d *Disk) startNext() {
	if len(d.queue) == 0 {
		d.busy = false
		return
	}
	d.busy = true
	p := d.pickNext()
	start := d.eng.Now()

	svc, hit := d.serviceTime(p)
	d.stats.Requests++
	if !p.write {
		d.stats.BytesRead += p.length
		if hit {
			d.stats.CacheHits++
		} else {
			d.stats.Misses++
		}
	}
	d.stats.BusyTime += svc

	d.eng.Schedule(svc, func() {
		res := Result{Start: start, End: d.eng.Now(), CacheHit: hit}
		if p.done != nil {
			p.done(res)
		}
		d.startNext()
	})
}

// serviceTime computes the service latency for p and applies cache
// side effects (segment fills, LRU touches, head movement).
func (d *Disk) serviceTime(p pending) (time.Duration, bool) {
	ifaceXfer := time.Duration(float64(p.length) / d.cfg.InterfaceRate * float64(time.Second))
	if p.write {
		return d.writeServiceTime(p, ifaceXfer), false
	}
	if si := d.lookup(p.offset, p.length); si >= 0 {
		// Full cache hit: no mechanical work.
		d.touch(si)
		return d.cfg.CommandOverhead + ifaceXfer, true
	}

	// Miss: mechanical read of the request plus read-ahead, filling one
	// segment (or streaming through the cache when the fill exceeds a
	// segment).
	fill := p.length
	if d.cfg.ReadAhead > fill {
		fill = d.cfg.ReadAhead
	}
	if d.cfg.SegmentSize > 0 && fill > d.cfg.SegmentSize {
		fill = d.cfg.SegmentSize
	}
	if fill < p.length {
		fill = p.length // requests larger than a segment stream through
	}
	if rem := d.g.Capacity() - p.offset; fill > rem {
		fill = rem
	}

	var svc time.Duration
	targetCyl := d.g.CylinderOf(p.offset)
	seek := d.g.SeekTime(d.headCyl, targetCyl)
	sequential := d.hasLastEnd && p.offset == d.lastEndOff
	var rot time.Duration
	if !sequential {
		rot = d.rng.Duration(d.g.RotationPeriod())
	}
	// Media and host-interface transfers overlap through the cache
	// (speed matching, §2.1): the slower of the two bounds the request.
	media := d.g.TransferTime(p.offset, fill)
	xfer := media
	if ifaceXfer > xfer {
		xfer = ifaceXfer
	}
	svc = d.cfg.CommandOverhead + seek + rot + xfer
	d.stats.SeekTime += seek
	d.stats.RotTime += rot
	d.stats.BytesMedia += fill

	d.headCyl = d.g.CylinderOf(p.offset + fill)
	d.lastEndOff = p.offset + fill
	d.hasLastEnd = true

	if len(d.segs) > 0 {
		d.fillSegment(p.offset, p.offset+fill)
	}
	return svc, false
}

// writeServiceTime models a write-through write: positioning plus the
// media transfer (overlapped with the interface), invalidating any
// overlapping cached segments.
func (d *Disk) writeServiceTime(p pending, ifaceXfer time.Duration) time.Duration {
	targetCyl := d.g.CylinderOf(p.offset)
	seek := d.g.SeekTime(d.headCyl, targetCyl)
	sequential := d.hasLastEnd && p.offset == d.lastEndOff
	var rot time.Duration
	if !sequential {
		rot = d.rng.Duration(d.g.RotationPeriod())
	}
	media := d.g.TransferTime(p.offset, p.length)
	xfer := media
	if ifaceXfer > xfer {
		xfer = ifaceXfer
	}
	d.stats.SeekTime += seek
	d.stats.RotTime += rot
	d.stats.BytesMedia += p.length
	d.stats.BytesWritten += p.length
	d.headCyl = d.g.CylinderOf(p.offset + p.length)
	d.lastEndOff = p.offset + p.length
	d.hasLastEnd = true

	// Cached read segments overlapping the written range are stale.
	for i := range d.segs {
		s := &d.segs[i]
		if s.end > s.start && p.offset < s.end && p.offset+p.length > s.start {
			d.segs[i] = segment{}
		}
	}
	return d.cfg.CommandOverhead + seek + rot + xfer
}

// lookup returns the index of a segment fully covering [off, off+n), or
// -1.
func (d *Disk) lookup(off, n int64) int {
	for i := range d.segs {
		s := &d.segs[i]
		if s.end > s.start && off >= s.start && off+n <= s.end {
			return i
		}
	}
	return -1
}

// touch refreshes LRU state for a segment.
func (d *Disk) touch(i int) {
	d.seq++
	d.segs[i].lastUse = d.eng.Now()
	d.segs[i].useSeq = d.seq
}

// fillSegment stores [start, end) into a segment, evicting LRU. If an
// existing segment is contiguous with the new range (the stream's
// previous window), it is extended up to the segment size instead, so
// that a stream's recently-read tail stays resident.
func (d *Disk) fillSegment(start, end int64) {
	// Extend a segment ending exactly at start.
	for i := range d.segs {
		s := &d.segs[i]
		if s.end > s.start && s.end == start && end-s.start <= d.cfg.SegmentSize {
			s.end = end
			d.touch(i)
			return
		}
	}
	victim := 0
	for i := range d.segs {
		s := &d.segs[i]
		if s.end == s.start { // invalid: free segment
			victim = i
			break
		}
		if s.useSeq < d.segs[victim].useSeq {
			victim = i
		}
	}
	if end-start > d.cfg.SegmentSize {
		start = end - d.cfg.SegmentSize
	}
	d.segs[victim] = segment{start: start, end: end}
	d.touch(victim)
}
