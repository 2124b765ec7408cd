package controller

import (
	"errors"
	"fmt"
	"time"

	"seqstream/internal/bus"
	"seqstream/internal/disk"
	"seqstream/internal/flight"
	"seqstream/internal/invariants"
	"seqstream/internal/sim"
)

// Config describes a controller.
type Config struct {
	// CacheSize is the controller cache in bytes. Zero disables
	// caching and read-ahead (pure pass-through).
	CacheSize int64
	// ReadAhead is the number of bytes fetched from a drive per cache
	// miss, counted from the missed offset. Zero disables prefetch
	// (misses fetch exactly the request).
	ReadAhead int64
	// HostRate is the controller-to-host link bandwidth in bytes/s.
	HostRate float64
	// DiskQueueDepth bounds outstanding requests per drive; further
	// fetches wait in the controller. Defaults to 2 when zero.
	// Prefetch extents are reserved when a fetch is dispatched to the
	// drive, so the depth also bounds how many reservations a drive
	// pins at once.
	DiskQueueDepth int
	// Overhead is the fixed per-request controller processing time.
	Overhead time.Duration
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.CacheSize < 0:
		return errors.New("controller: cache size must be >= 0")
	case c.ReadAhead < 0:
		return errors.New("controller: read-ahead must be >= 0")
	case c.ReadAhead > 0 && c.CacheSize > 0 && c.ReadAhead > c.CacheSize:
		return errors.New("controller: read-ahead exceeds cache size")
	case c.HostRate <= 0:
		return errors.New("controller: host rate must be positive")
	case c.Overhead < 0:
		return errors.New("controller: overhead must be >= 0")
	}
	return nil
}

// ProfileBC4810 models the paper's Broadcom BC4810: an 8-channel entry
// level SATA RAID controller sustaining up to 450 MB/s (§5), with a
// mid-range 64 MB cache (§2.1) and read-ahead disabled by default.
func ProfileBC4810() Config {
	return Config{
		CacheSize: 64 << 20,
		ReadAhead: 0,
		HostRate:  450e6,
		Overhead:  50 * time.Microsecond,
	}
}

// Result describes a completed controller request.
type Result struct {
	Start sim.Time
	End   sim.Time
	// ControllerHit reports the request was served from controller
	// cache without touching the drive.
	ControllerHit bool
	// DiskHit reports the drive served its part from its own cache.
	DiskHit bool
}

// Stats accumulates controller counters.
type Stats struct {
	Requests   int64
	Writes     int64 // write requests accepted
	CacheHits  int64 // served from a resident extent
	Coalesced  int64 // joined an in-flight fetch covering the range
	Misses     int64 // initiated a drive fetch
	BytesHost  int64 // bytes delivered over the host link
	BytesDisks int64 // bytes fetched from drives (incl. prefetch)
}

type extent struct {
	diskID int
	start  int64
	end    int64
	useSeq uint64
	// reserved marks an extent claimed by an in-flight fetch: its
	// range is not yet readable and it cannot be evicted. Reserving at
	// issue time is what collapses throughput when streams × read-ahead
	// exceed the cache (Fig. 8): in-flight prefetches pin the cache and
	// evict data other streams have not consumed yet.
	reserved bool
}

type waiter struct {
	length int64
	start  sim.Time
	done   func(Result)
}

type inflight struct {
	diskID  int
	start   int64
	end     int64
	waiters []waiter
}

// fetchJob is a drive fetch waiting for a queue slot.
type fetchJob struct {
	diskID int
	off    int64
	n      int64 // requested length
	fetch  int64 // planned fetch length (>= n when prefetching)
	start  sim.Time
	write  bool
	done   func(Result)
	fl     *inflight
	ext    *extent // reserved cache extent, nil when not prefetching
	token  uint64  // reservation generation
}

// Controller is a simulated controller. All access must happen on the
// engine loop.
type Controller struct {
	eng      *sim.Engine
	cfg      Config
	link     *bus.Bus
	disks    []*disk.Disk
	extents  []extent
	extSize  int64
	seq      uint64
	inflight []*inflight
	pending  [][]*fetchJob // per-disk FIFO of waiting fetches
	active   []int         // per-disk outstanding fetches
	stats    Stats
	obs      *Obs

	// fr records controller accept/complete events; diskBase maps this
	// controller's local drive indices to the node's global disk ids so
	// the events line up with the core scheduler's.
	fr       *flight.Recorder
	diskBase int
}

// SetFlight attaches a flight recorder (nil detaches). diskBase is
// added to local drive indices when stamping events, so a multi-
// controller host reports global disk ids. Call it before traffic.
func (c *Controller) SetFlight(rec *flight.Recorder, diskBase int) {
	c.fr = rec
	c.diskBase = diskBase
}

// New constructs a controller over the given drives. The host link is
// created internally from cfg.HostRate.
func New(eng *sim.Engine, cfg Config, disks []*disk.Disk) (*Controller, error) {
	if eng == nil {
		return nil, errors.New("controller: nil engine")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(disks) == 0 {
		return nil, errors.New("controller: need at least one disk")
	}
	link, err := bus.New(eng, cfg.HostRate)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		eng:     eng,
		cfg:     cfg,
		link:    link,
		disks:   disks,
		pending: make([][]*fetchJob, len(disks)),
		active:  make([]int, len(disks)),
	}
	if cfg.CacheSize > 0 && cfg.ReadAhead > 0 {
		c.extSize = cfg.ReadAhead
		n := cfg.CacheSize / cfg.ReadAhead
		if n < 1 {
			n = 1
		}
		c.extents = make([]extent, n)
	}
	return c, nil
}

// Disks returns the number of attached drives.
func (c *Controller) Disks() int { return len(c.disks) }

// Disk returns the i-th attached drive.
func (c *Controller) Disk(i int) *disk.Disk { return c.disks[i] }

// Submit issues a read of [off, off+n) on drive diskID. done fires on
// the engine loop after the data has crossed the host link.
func (c *Controller) Submit(diskID int, off, n int64, done func(Result)) error {
	if diskID < 0 || diskID >= len(c.disks) {
		return fmt.Errorf("controller: disk %d out of range [0,%d)", diskID, len(c.disks))
	}
	start := c.eng.Now()
	c.stats.Requests++
	if c.fr != nil {
		gdisk := uint16(c.diskBase + diskID)
		c.fr.RingFor(c.diskBase + diskID).Record(flight.Event{Op: flight.OpCtrlSubmit,
			Disk: gdisk, Stream: flight.NoStream, Offset: off, Length: n, T: time.Duration(start)})
		orig := done
		done = func(res Result) {
			c.fr.RingFor(int(gdisk)).Record(flight.Event{Op: flight.OpCtrlDone,
				Disk: gdisk, Stream: flight.NoStream, Offset: off, Length: n,
				T: time.Duration(res.End), Dur: time.Duration(res.End - res.Start)})
			if orig != nil {
				orig(res)
			}
		}
	}

	finish := func(res Result) {
		c.stats.BytesHost += n
		if c.obs != nil {
			c.obs.hostBytes.Add(n)
		}
		c.link.Transfer(n, func() {
			res.End = c.eng.Now()
			if done != nil {
				done(res)
			}
		})
	}

	if c.lookupExtent(diskID, off, n) {
		c.stats.CacheHits++
		if c.obs != nil {
			// The metric counter is monotone, so it is bumped only on
			// paths that accept the request (the range-check failure
			// below un-counts stats.Requests).
			c.obs.requests.Inc()
			c.obs.cacheHits.Inc()
		}
		c.eng.Schedule(c.cfg.Overhead, func() {
			finish(Result{Start: start, ControllerHit: true})
		})
		return nil
	}

	// A fetch already in flight for this range absorbs the request; it
	// completes from controller memory when the fetch lands.
	if fl := c.lookupInflight(diskID, off, n); fl != nil {
		c.stats.Coalesced++
		if c.obs != nil {
			c.obs.requests.Inc()
			c.obs.coalesced.Inc()
		}
		fl.waiters = append(fl.waiters, waiter{length: n, start: start, done: done})
		return nil
	}

	d := c.disks[diskID]
	if off < 0 || n <= 0 || off+n > d.Capacity() {
		c.stats.Requests--
		return fmt.Errorf("controller: %w: off=%d len=%d cap=%d", disk.ErrOutOfRange, off, n, d.Capacity())
	}
	c.stats.Misses++
	if c.obs != nil {
		c.obs.requests.Inc()
		c.obs.misses.Inc()
	}
	fetch := n
	if c.cfg.ReadAhead > fetch {
		fetch = c.cfg.ReadAhead
	}
	if rem := d.Capacity() - off; fetch > rem {
		fetch = rem
	}
	c.stats.BytesDisks += fetch
	if c.obs != nil {
		c.obs.diskBytes.Add(fetch)
	}
	job := &fetchJob{diskID: diskID, off: off, n: n, fetch: fetch, start: start, done: done}
	if fetch > n && len(c.extents) > 0 {
		// Blind prefetch: the extent is reserved when the request
		// enters the controller, so every stream blocked on a miss
		// pins cache memory. Eviction prefers resident data; when all
		// extents are reservations, new reservations steal the oldest
		// one, its fill lands nowhere, and throughput collapses — the
		// Fig. 8 regime where streams × read-ahead exceed the cache.
		job.ext, job.token = c.reserveExtent(diskID, off, off+fetch)
	}
	job.fl = &inflight{diskID: diskID, start: off, end: off + fetch}
	c.inflight = append(c.inflight, job.fl)
	c.pending[diskID] = append(c.pending[diskID], job)
	c.dispatchDisk(diskID)
	return nil
}

// dispatchDisk starts queued fetches while the drive's queue depth
// allows. Prefetch extents are reserved here — at dispatch, not at
// submission — so at most DiskQueueDepth reservations per drive are
// pinned at any instant.
func (c *Controller) dispatchDisk(diskID int) {
	depth := c.cfg.DiskQueueDepth
	if depth <= 0 {
		depth = 2
	}
	if invariants.Enabled {
		defer c.checkInvariants(diskID, depth)
	}
	// Every queue mutation funnels through here (submission, write
	// transfer, fetch completion), so syncing on exit keeps the gauges
	// current without instrumenting each site.
	defer c.syncQueueGauges()
	for c.active[diskID] < depth && len(c.pending[diskID]) > 0 {
		job := c.pending[diskID][0]
		c.pending[diskID] = c.pending[diskID][1:]
		c.active[diskID]++
		submit := c.disks[diskID].Submit
		if job.write {
			submit = c.disks[diskID].SubmitWrite
		}
		err := submit(job.off, job.fetch, func(dres disk.Result) {
			c.active[diskID]--
			c.removeInflight(job.fl)
			// Commit the fill only if the reservation survived; a
			// stolen extent means the prefetched bytes are dropped.
			if job.ext != nil && job.ext.reserved && job.ext.useSeq == job.token {
				job.ext.reserved = false
				c.seq++
				job.ext.useSeq = c.seq
			}
			c.finishJob(job, dres.CacheHit)
			c.dispatchDisk(diskID)
		})
		if err != nil {
			// Ranges are validated at Submit; treat a refusal as an
			// immediate degenerate completion to keep the queue live.
			c.active[diskID]--
			c.removeInflight(job.fl)
			if job.ext != nil && job.ext.reserved && job.ext.useSeq == job.token {
				*job.ext = extent{}
			}
			c.finishJob(job, false)
		}
	}
}

// checkInvariants asserts the per-drive queue invariants when the
// `invariants` build tag is on: the outstanding count respects the
// queue depth, queued fetches belong to the drive's FIFO, and every
// queued fetch's in-flight record is registered (so coalescing finds
// it). It runs on the engine loop.
func (c *Controller) checkInvariants(diskID, depth int) {
	invariants.Check(c.active[diskID] >= 0 && c.active[diskID] <= depth,
		"drive %d has %d outstanding fetches, queue depth is %d", diskID, c.active[diskID], depth)
	invariants.Check(c.active[diskID] == depth || len(c.pending[diskID]) == 0,
		"drive %d idles %d queue slots with %d fetches waiting",
		diskID, depth-c.active[diskID], len(c.pending[diskID]))
	for _, job := range c.pending[diskID] {
		invariants.Check(job.diskID == diskID,
			"fetch for drive %d queued on drive %d", job.diskID, diskID)
		registered := job.write // zero-width write records never coalesce
		for _, fl := range c.inflight {
			if fl == job.fl {
				registered = true
				break
			}
		}
		invariants.Check(registered, "queued fetch [%d,%d) on drive %d has no in-flight record",
			job.off, job.off+job.fetch, diskID)
	}
}

// finishJob delivers a completed fetch to its requester and any
// coalesced waiters over the host link. Write acknowledgements carry
// no data (the payload crossed the link before the drive write).
func (c *Controller) finishJob(job *fetchJob, diskHit bool) {
	if job.write {
		c.eng.Schedule(c.cfg.Overhead, func() {
			if job.done != nil {
				job.done(Result{Start: job.start, End: c.eng.Now()})
			}
		})
		return
	}
	c.stats.BytesHost += job.n
	if c.obs != nil {
		c.obs.hostBytes.Add(job.n)
	}
	c.link.Transfer(job.n, func() {
		if job.done != nil {
			job.done(Result{Start: job.start, End: c.eng.Now(), DiskHit: diskHit})
		}
	})
	for _, w := range job.fl.waiters {
		w := w
		c.stats.BytesHost += w.length
		if c.obs != nil {
			c.obs.hostBytes.Add(w.length)
		}
		c.link.Transfer(w.length, func() {
			if w.done != nil {
				w.done(Result{Start: w.start, End: c.eng.Now(), ControllerHit: true, DiskHit: diskHit})
			}
		})
	}
}

// SubmitWrite issues a write of [off, off+n) on drive diskID, after
// the data crosses the host link. Writes invalidate any overlapping
// cache extents and bypass prefetching; they share the per-disk queue
// with reads.
func (c *Controller) SubmitWrite(diskID int, off, n int64, done func(Result)) error {
	if diskID < 0 || diskID >= len(c.disks) {
		return fmt.Errorf("controller: disk %d out of range [0,%d)", diskID, len(c.disks))
	}
	d := c.disks[diskID]
	if off < 0 || n <= 0 || off+n > d.Capacity() {
		return fmt.Errorf("controller: %w: off=%d len=%d cap=%d", disk.ErrOutOfRange, off, n, d.Capacity())
	}
	start := c.eng.Now()
	c.stats.Requests++
	c.stats.Writes++
	c.stats.BytesDisks += n
	c.stats.BytesHost += n
	if c.obs != nil {
		c.obs.requests.Inc()
		c.obs.writes.Inc()
		c.obs.diskBytes.Add(n)
		c.obs.hostBytes.Add(n)
	}

	// Stale extents covering the written range are dropped.
	for i := range c.extents {
		e := &c.extents[i]
		if !e.reserved && e.end > e.start && e.diskID == diskID && off < e.end && off+n > e.start {
			c.extents[i] = extent{}
		}
	}

	// Host -> controller transfer first, then the drive write through
	// the per-disk queue.
	c.link.Transfer(n, func() {
		job := &fetchJob{diskID: diskID, off: off, n: n, fetch: n, start: start, write: true, done: done}
		job.fl = &inflight{diskID: diskID} // zero-width: never coalesces
		c.pending[diskID] = append(c.pending[diskID], job)
		c.dispatchDisk(diskID)
	})
	return nil
}

// lookupInflight returns an in-flight fetch fully covering the range.
func (c *Controller) lookupInflight(diskID int, off, n int64) *inflight {
	for _, fl := range c.inflight {
		if fl.diskID == diskID && off >= fl.start && off+n <= fl.end {
			return fl
		}
	}
	return nil
}

// removeInflight drops a completed fetch from the in-flight list.
func (c *Controller) removeInflight(fl *inflight) {
	for i, cur := range c.inflight {
		if cur == fl {
			c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
			return
		}
	}
}

// lookupExtent reports whether a cached extent fully covers the range,
// refreshing its LRU position.
func (c *Controller) lookupExtent(diskID int, off, n int64) bool {
	for i := range c.extents {
		e := &c.extents[i]
		if !e.reserved && e.end > e.start && e.diskID == diskID && off >= e.start && off+n <= e.end {
			c.seq++
			e.useSeq = c.seq
			return true
		}
	}
	return false
}

// reserveExtent claims a cache extent for a fetch, preferring free
// extents, then LRU resident data, and — only when every extent is a
// reservation — stealing the LRU reservation. It returns the extent
// and the reservation token the fill must present to commit.
func (c *Controller) reserveExtent(diskID int, start, end int64) (*extent, uint64) {
	victim := -1
	for i := range c.extents {
		e := &c.extents[i]
		if e.reserved {
			continue
		}
		if e.end == e.start {
			victim = i
			break
		}
		if victim < 0 || e.useSeq < c.extents[victim].useSeq {
			victim = i
		}
	}
	if victim < 0 {
		// All extents are pinned by other in-flight fetches: steal the
		// oldest reservation. Its fill will be dropped on completion.
		victim = 0
		for i := range c.extents {
			if c.extents[i].useSeq < c.extents[victim].useSeq {
				victim = i
			}
		}
	}
	c.seq++
	c.extents[victim] = extent{diskID: diskID, start: start, end: end, useSeq: c.seq, reserved: true}
	return &c.extents[victim], c.seq
}
