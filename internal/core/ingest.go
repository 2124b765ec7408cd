package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/bufpool"
	"seqstream/internal/invariants"
)

// IngestConfig parameterizes the write-once ingest path: the mirror
// image of the read scheduler for the paper's "storing ... (large) I/O
// streams" workloads. Small sequential client writes are coalesced in
// host memory into chunk-sized device writes, so disks see large
// sequential transfers regardless of how many ingest streams run.
type IngestConfig struct {
	// ChunkSize is the coalesced device write size (the write-side R).
	ChunkSize int64
	// Memory bounds bytes staged across all open chunks.
	Memory int64
	// FlushTimeout flushes a partial chunk that has been idle this
	// long (default 1s).
	FlushTimeout time.Duration
	// GCPeriod is the flush scanner period (default 250ms).
	GCPeriod time.Duration
	// AckOnFlush delays write acknowledgements until the chunk is on
	// the device (write-through semantics). The default acknowledges
	// on staging (write-behind), matching a media-ingest node with a
	// battery-backed buffer.
	AckOnFlush bool
	// Pool, when non-nil, backs chunk staging memory with pooled
	// buffers instead of per-chunk allocations (only meaningful for
	// devices that take materialized data). Share it with the read
	// scheduler's pool so one arena serves both directions.
	Pool *bufpool.Pool
}

// ApplyDefaults fills zero fields.
func (c *IngestConfig) ApplyDefaults() {
	if c.FlushTimeout == 0 {
		c.FlushTimeout = time.Second
	}
	if c.GCPeriod == 0 {
		c.GCPeriod = 250 * time.Millisecond
	}
}

// Validate reports configuration errors.
func (c IngestConfig) Validate() error {
	switch {
	case c.ChunkSize <= 0:
		return errors.New("core: ingest chunk size must be positive")
	case c.Memory < c.ChunkSize:
		return fmt.Errorf("core: ingest memory (%d) must hold one chunk (%d)", c.Memory, c.ChunkSize)
	case c.FlushTimeout <= 0 || c.GCPeriod <= 0:
		return errors.New("core: ingest periods must be positive")
	}
	return nil
}

// IngestStats counts ingest activity.
type IngestStats struct {
	Writes        int64
	BytesAccepted int64
	Flushes       int64
	BytesFlushed  int64
	FullFlushes   int64 // chunk-sized flushes
	TimedFlushes  int64 // partial flushes forced by idleness
	ForcedFlushes int64 // partial flushes forced by memory pressure
	DirectWrites  int64 // non-sequential writes passed straight through
	Errors        int64
	MemoryInUse   int64 // gauge
	OpenStreams   int64 // gauge
}

// wchunk is one open coalescing buffer.
type wchunk struct {
	start  int64
	filled int64
	data   []byte // nil when the device does not take data
	// buf is the pooled memory data appends into (nil without a pool);
	// it is recycled after the device write completes and the acks run.
	buf  *bufpool.Buf
	acks []func(error)
}

// wstream is one detected ingest stream.
type wstream struct {
	disk       int
	next       int64 // expected next client offset
	chunk      *wchunk
	lastActive time.Duration
}

// Ingest coalesces sequential writes. It is safe for concurrent use.
type Ingest struct {
	cfg    IngestConfig
	dev    blockdev.Device
	writer blockdev.Writer
	clock  blockdev.Clock

	mu         sync.Mutex
	byNext     offIndex[*wstream] //lint:guardedby mu
	memUsed    int64              //lint:guardedby mu
	stats      IngestStats        //lint:guardedby mu
	closed     bool               //lint:guardedby mu
	gcArmed    bool               //lint:guardedby mu
	gcCancel   func()             //lint:guardedby mu
	inFlight   int                //lint:guardedby mu
	idleSignal chan struct{}      //lint:guardedby mu
	pendingIO  []func()           //lint:guardedby mu
}

// NewIngest builds an ingest coalescer over a writable device.
func NewIngest(dev blockdev.Device, clock blockdev.Clock, cfg IngestConfig) (*Ingest, error) {
	if dev == nil {
		return nil, errors.New("core: nil device")
	}
	if clock == nil {
		return nil, errors.New("core: nil clock")
	}
	w, ok := dev.(blockdev.Writer)
	if !ok {
		return nil, blockdev.ErrReadOnly
	}
	cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Ingest{
		cfg:    cfg,
		dev:    dev,
		writer: w,
		clock:  clock,
		byNext: newOffIndex[*wstream](dev.Disks()),
	}, nil
}

// Stats returns a snapshot of the counters.
func (g *Ingest) Stats() IngestStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.stats
	st.MemoryInUse = g.memUsed
	st.OpenStreams = int64(g.byNext.len())
	return st
}

// Write stages [off, off+len(data) or length) on a disk. Exactly one
// of data or length describes the payload: pass data for real devices,
// or nil data with a positive length for simulated ones. done (may be
// nil) is invoked according to AckOnFlush.
func (g *Ingest) Write(disk int, off int64, data []byte, length int64, done func(error)) error {
	if data != nil {
		length = int64(len(data))
	}
	if err := blockdev.CheckRequest(g.dev, disk, off, length); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return errors.New("core: ingest closed")
	}
	now := g.clock.Now()
	g.stats.Writes++
	g.stats.BytesAccepted += length

	st := g.byNext.get(disk, off)
	if st == nil {
		// A write that does not continue any stream: it opens a new
		// stream when chunk-aligned progress is plausible, and passes
		// through directly when it alone exceeds the chunk.
		if length >= g.cfg.ChunkSize {
			g.stats.DirectWrites++
			g.directWrite(disk, off, data, length, done)
			g.mu.Unlock()
			g.flushIO()
			return nil
		}
		st = &wstream{disk: disk, next: off}
		g.byNext.put(disk, off, st)
	}
	g.byNext.move(disk, off, off+length, st)
	st.next = off + length
	st.lastActive = now

	// Stage into the open chunk, splitting across chunk boundaries.
	newChunk := func() *wchunk {
		ch := &wchunk{start: off}
		if data != nil {
			if g.cfg.Pool != nil {
				ch.buf = g.cfg.Pool.Get(g.cfg.ChunkSize)
				ch.data = ch.buf.Data[:0]
			} else {
				ch.data = make([]byte, 0, g.cfg.ChunkSize)
			}
		}
		return ch
	}
	for length > 0 {
		if st.chunk == nil {
			st.chunk = newChunk()
		}
		room := g.cfg.ChunkSize - st.chunk.filled
		take := length
		if take > room {
			take = room
		}
		if g.memUsed+take > g.cfg.Memory {
			// May flush this stream's own chunk; reopen at the current
			// position if so.
			g.forceFlush(take)
			if st.chunk == nil {
				st.chunk = newChunk()
			}
		}
		st.chunk.filled += take
		g.memUsed += take
		if data != nil {
			st.chunk.data = append(st.chunk.data, data[:take]...)
			data = data[take:]
		}
		off += take
		length -= take
		if done != nil && length == 0 && g.cfg.AckOnFlush {
			st.chunk.acks = append(st.chunk.acks, done)
		}
		if st.chunk.filled >= g.cfg.ChunkSize {
			g.stats.FullFlushes++
			g.flushChunk(st)
		}
	}
	g.armGC()
	g.checkInvariants()
	g.mu.Unlock()
	g.flushIO()
	if done != nil && !g.cfg.AckOnFlush {
		done(nil) // write-behind acknowledgement
	}
	return nil
}

// checkInvariants asserts the coalescer's accounting invariants when
// the `invariants` build tag is on. The memory bound itself is soft
// here (forceFlush cannot reclaim chunks already in flight), so the
// hard invariants are the accounting ones. Caller holds the lock.
//
//lint:holds mu
func (g *Ingest) checkInvariants() {
	if !invariants.Enabled {
		return
	}
	invariants.Check(g.memUsed >= 0, "staged ingest memory went negative: %d", g.memUsed)
	invariants.Check(g.inFlight >= 0, "in-flight ingest writes went negative: %d", g.inFlight)
	var open int64
	for disk, m := range g.byNext {
		for off, st := range m {
			if st.chunk != nil {
				open += st.chunk.filled
				invariants.Check(st.chunk.filled <= g.cfg.ChunkSize,
					"open chunk holds %d bytes, chunk size is %d", st.chunk.filled, g.cfg.ChunkSize)
			}
			invariants.Check(disk == st.disk && off == st.next,
				"ingest stream indexed under (disk=%d, off=%d) but expects (disk=%d, off=%d)",
				disk, off, st.disk, st.next)
		}
	}
	invariants.Check(open == g.memUsed,
		"open chunks hold %d bytes but accounting says %d", open, g.memUsed)
}

// directWrite passes a large write straight to the device. Caller
// holds the lock.
//
//lint:holds mu
func (g *Ingest) directWrite(disk int, off int64, data []byte, length int64, done func(error)) {
	g.inFlight++
	g.pendingIO = append(g.pendingIO, func() {
		err := g.writer.WriteAt(disk, off, length, data, func(werr error) {
			g.mu.Lock()
			g.inFlight--
			if werr != nil {
				g.stats.Errors++
			}
			g.mu.Unlock()
			if done != nil && g.cfg.AckOnFlush {
				done(werr)
			}
		})
		if err != nil {
			g.mu.Lock()
			g.inFlight--
			g.stats.Errors++
			g.mu.Unlock()
			if done != nil && g.cfg.AckOnFlush {
				done(err)
			}
		}
	})
	if done != nil && !g.cfg.AckOnFlush {
		done(nil)
	}
}

// flushChunk sends a stream's open chunk to the device. Caller holds
// the lock.
//
//lint:holds mu
func (g *Ingest) flushChunk(st *wstream) {
	ch := st.chunk
	if ch == nil || ch.filled == 0 {
		return
	}
	st.chunk = nil
	g.stats.Flushes++
	g.stats.BytesFlushed += ch.filled
	// Ownership of the chunk memory passes to the device queue here;
	// M bounds the open (appendable) chunks.
	g.memUsed -= ch.filled
	g.inFlight++
	disk := st.disk
	g.pendingIO = append(g.pendingIO, func() {
		err := g.writer.WriteAt(disk, ch.start, ch.filled, ch.data, func(werr error) {
			g.finishFlush(ch, werr)
		})
		if err != nil {
			g.finishFlush(ch, err)
		}
	})
}

func (g *Ingest) finishFlush(ch *wchunk, werr error) {
	g.mu.Lock()
	g.inFlight--
	if werr != nil {
		g.stats.Errors++
	}
	// Capture the signal channel under the lock: Flush swaps it
	// concurrently, so reading the field after Unlock would race.
	var idle chan struct{}
	if g.inFlight == 0 {
		idle = g.idleSignal
	}
	g.mu.Unlock()
	for _, ack := range ch.acks {
		ack(werr)
	}
	// The device and the acks are done with the chunk bytes; recycle.
	ch.buf.Release()
	ch.buf = nil
	ch.data = nil
	if idle != nil {
		select {
		case idle <- struct{}{}:
		default:
		}
	}
}

// flushOpen sends every stream's open chunk to the device. Caller
// holds the lock.
//
//lint:holds mu
func (g *Ingest) flushOpen() {
	for _, m := range g.byNext {
		for _, st := range m {
			g.flushChunk(st)
		}
	}
}

// forceFlush reclaims staged memory by flushing the least-recently
// active open chunk until `need` bytes fit. Caller holds the lock.
//
//lint:holds mu
func (g *Ingest) forceFlush(need int64) {
	for g.memUsed+need > g.cfg.Memory {
		var victim *wstream
		for _, m := range g.byNext {
			for _, st := range m {
				if st.chunk == nil || st.chunk.filled == 0 {
					continue
				}
				if victim == nil || st.lastActive < victim.lastActive {
					victim = st
				}
			}
		}
		if victim == nil {
			return // everything already in flight
		}
		g.stats.ForcedFlushes++
		g.flushChunk(victim)
	}
}

// flushIO issues device calls queued under the lock.
func (g *Ingest) flushIO() {
	for {
		g.mu.Lock()
		calls := g.pendingIO
		g.pendingIO = nil
		g.mu.Unlock()
		if len(calls) == 0 {
			return
		}
		for _, fn := range calls {
			fn()
		}
	}
}

// armGC schedules the flush scanner while open chunks exist. Caller
// holds the lock.
//
//lint:holds mu
func (g *Ingest) armGC() {
	if g.gcArmed || g.closed || g.byNext.len() == 0 {
		return
	}
	g.gcArmed = true
	g.gcCancel = g.clock.Schedule(g.cfg.GCPeriod, g.gcTick)
}

func (g *Ingest) gcTick() {
	g.mu.Lock()
	g.gcArmed = false
	if g.closed {
		g.mu.Unlock()
		return
	}
	now := g.clock.Now()
	for _, m := range g.byNext {
		for off, st := range m {
			if now-st.lastActive <= g.cfg.FlushTimeout {
				continue
			}
			if st.chunk != nil && st.chunk.filled > 0 {
				g.stats.TimedFlushes++
				g.flushChunk(st)
			}
			delete(m, off)
		}
	}
	g.armGC()
	g.checkInvariants()
	g.mu.Unlock()
	g.flushIO()
}

// Flush synchronously pushes every open chunk to the device and waits
// for all in-flight writes to land.
func (g *Ingest) Flush() {
	g.mu.Lock()
	g.flushOpen()
	done := make(chan struct{}, 1)
	g.idleSignal = done
	pending := g.inFlight > 0 || len(g.pendingIO) > 0
	g.mu.Unlock()
	g.flushIO()
	if pending {
		g.mu.Lock()
		pending = g.inFlight > 0
		g.mu.Unlock()
		if pending {
			<-done
		}
	}
	g.mu.Lock()
	g.idleSignal = nil
	g.mu.Unlock()
}

// Close flushes outstanding chunks and stops the scanner. The caller
// must ensure the device can still complete writes (for simulated
// devices, run the engine afterwards and call Flush from a goroutine
// only in real time; in simulations prefer FlushAsync + engine run).
func (g *Ingest) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.flushOpen()
	for _, m := range g.byNext {
		clear(m)
	}
	g.closed = true
	if g.gcCancel != nil {
		g.gcCancel()
	}
	g.mu.Unlock()
	g.flushIO()
}

// FlushAsync pushes every open chunk without waiting (for simulated
// clocks, where waiting must happen by running the engine).
func (g *Ingest) FlushAsync() {
	g.mu.Lock()
	g.flushOpen()
	g.mu.Unlock()
	g.flushIO()
}
