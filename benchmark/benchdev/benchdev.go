// Package benchdev is the block device the benchmark owns: a
// blockdev.Device + ReaderInto that stores nothing, fills reads from
// a precomputed table (byte-identical to blockdev.Pattern, without the
// per-byte modulo that made the test device the bottleneck of the
// payload path), optionally models each disk as a FIFO server with a
// positioning cost and a transfer rate, and counts everything the
// benchmark's blockdev.* rows report.
package benchdev

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/flight"
)

// period is blockdev.Pattern's period: byte (off + disk*131) % 251.
const period = 251

// tableLen is a multiple of the period that holds any 64 KiB request
// at any phase, so Expect can answer a client request without copying.
const tableLen = period * 264

// MaxExpect is the longest range Expect can return.
const MaxExpect = tableLen - period + 1

var table = func() [tableLen]byte {
	var t [tableLen]byte
	for i := range t {
		t[i] = byte(i % period)
	}
	return t
}()

// Config describes a device.
type Config struct {
	Disks    int
	Capacity int64 // bytes per disk

	// Data makes reads deliver the pattern, and the device accept
	// ReadInto so the scheduler stages them in bufpool memory. Off, the
	// device is data-less: reads complete with nil data and no staging
	// memory exists.
	Data bool

	// Position is charged when a read does not start where the previous
	// read on that disk ended; Rate is the transfer rate in bytes per
	// second. Both zero gives the instant device, which completes
	// inside the call. Any non-zero service time completes on a timer
	// goroutine, never inline.
	Position time.Duration
	Rate     int64

	// Now is the clock the service model and Observe run on; nil uses
	// time since New.
	Now func() time.Duration
	// Observe, when set, receives every completed read that had a
	// service time: the disk, the range, and when it arrived, began
	// service and completed. The traced run turns these into
	// blockdev.read spans. (An instant read completes inside the call
	// that issued it, so it is already inside that call's span.)
	Observe func(r Read)
}

// Read is one completed device read as Observe sees it.
type Read struct {
	Disk                int
	Off, Len            int64
	Arrive, Start, Done time.Duration
	Positioned          bool
}

type diskState struct {
	mu        sync.Mutex
	busyUntil time.Duration // device-clock time the FIFO drains
	lastEnd   int64         // where the previous read ended
	waits     []time.Duration
}

// Device implements blockdev.Device, blockdev.ReaderInto and
// blockdev.ReadIntoSupported.
type Device struct {
	cfg   Config
	now   func() time.Duration
	disks []diskState
	fr    *flight.Recorder

	reads, bytes, seeks atomic.Int64
	busyNs, fillNs      atomic.Int64
	fillBytes           atomic.Int64
}

var (
	_ blockdev.Device            = (*Device)(nil)
	_ blockdev.ReaderInto        = (*Device)(nil)
	_ blockdev.ReadIntoSupported = (*Device)(nil)
)

// New builds a device.
func New(cfg Config) (*Device, error) {
	switch {
	case cfg.Disks <= 0:
		return nil, errors.New("benchdev: need at least one disk")
	case cfg.Capacity <= 0:
		return nil, errors.New("benchdev: capacity must be positive")
	case cfg.Position < 0 || cfg.Rate < 0:
		return nil, errors.New("benchdev: service model must be >= 0")
	}
	d := &Device{cfg: cfg, now: cfg.Now, disks: make([]diskState, cfg.Disks)}
	if d.now == nil {
		start := time.Now()
		d.now = func() time.Duration { return time.Since(start) }
	}
	for i := range d.disks {
		d.disks[i].lastEnd = -1
	}
	return d, nil
}

// SetFlight attaches a flight recorder the way blockdev.MemDevice does:
// every completed read records an OpDevRead on the disk's ring.
// cmd/streamnode finds this hook by interface; so does the benchmark.
func (d *Device) SetFlight(rec *flight.Recorder) { d.fr = rec }

// Disks implements blockdev.Device.
func (d *Device) Disks() int { return d.cfg.Disks }

// Capacity implements blockdev.Device.
func (d *Device) Capacity(int) int64 { return d.cfg.Capacity }

// SupportsReadInto implements blockdev.ReadIntoSupported.
func (d *Device) SupportsReadInto() bool { return d.cfg.Data }

// ReadAt implements blockdev.Device.
func (d *Device) ReadAt(disk int, off, length int64, done func([]byte, error)) error {
	return d.read(disk, off, length, nil, done)
}

// ReadInto implements blockdev.ReaderInto; buf must hold exactly
// length bytes.
func (d *Device) ReadInto(disk int, off, length int64, buf []byte, done func([]byte, error)) error {
	if !d.cfg.Data || int64(len(buf)) != length {
		return blockdev.ErrBadRequest
	}
	return d.read(disk, off, length, buf, done)
}

// ServiceTime is the model's time to serve one read once it reaches
// the head of its disk's queue.
func (d *Device) ServiceTime(length int64, positioned bool) time.Duration {
	var t time.Duration
	if positioned {
		t = d.cfg.Position
	}
	if d.cfg.Rate > 0 {
		t += time.Duration(length * int64(time.Second) / d.cfg.Rate)
	}
	return t
}

func (d *Device) read(disk int, off, length int64, buf []byte, done func([]byte, error)) error {
	if err := blockdev.CheckRequest(d, disk, off, length); err != nil {
		return err
	}
	if buf == nil && d.cfg.Data {
		buf = make([]byte, length) // ReadAt; the scheduler itself uses ReadInto
	}
	var frStart time.Duration
	if d.fr != nil {
		frStart = d.fr.Now()
	}
	ds := &d.disks[disk]
	arrive := d.now()
	ds.mu.Lock()
	positioned := ds.lastEnd != off
	ds.lastEnd = off + length
	service := d.ServiceTime(length, positioned)
	begin := arrive
	if ds.busyUntil > begin {
		begin = ds.busyUntil
	}
	end := begin + service
	ds.busyUntil = end
	if service > 0 {
		ds.waits = append(ds.waits, begin-arrive)
	}
	ds.mu.Unlock()

	d.reads.Add(1)
	d.bytes.Add(length)
	if positioned {
		d.seeks.Add(1)
	}

	complete := func() {
		d.busyNs.Add(int64(service))
		if fr := d.fr; fr != nil {
			now := fr.Now()
			fr.RingFor(disk).Record(flight.Event{Op: flight.OpDevRead, Disk: uint16(disk),
				Stream: flight.NoStream, Offset: off, Length: length, T: now, Dur: now - frStart})
		}
		if d.cfg.Observe != nil && service > 0 {
			d.cfg.Observe(Read{Disk: disk, Off: off, Len: length, Arrive: arrive,
				Start: begin, Done: d.now(), Positioned: positioned})
		}
		if done == nil {
			return
		}
		if buf != nil {
			t0 := time.Now()
			Fill(buf, disk, off)
			d.fillNs.Add(int64(time.Since(t0)))
			d.fillBytes.Add(length)
		}
		done(buf, nil)
	}
	if service == 0 {
		complete()
		return nil
	}
	time.AfterFunc(end-d.now(), complete)
	return nil
}

func phase(disk int, off int64) int {
	return int((off + int64(disk)*131) % period)
}

// Fill writes the pattern for [off, off+len(buf)) of a disk into buf.
func Fill(buf []byte, disk int, off int64) {
	p := phase(disk, off)
	for len(buf) > 0 {
		n := copy(buf, table[p:])
		buf = buf[n:]
		p = (p + n) % period
	}
}

// Expect returns the bytes a read of [off, off+n) on a disk must
// deliver, as a view of the shared table; n must not exceed MaxExpect.
// The caller must not modify the result.
func Expect(disk int, off, n int64) []byte {
	p := phase(disk, off)
	return table[p : p+int(n)]
}

// Stats is the device's accounting.
type Stats struct {
	Reads     int64
	Bytes     int64
	Seeks     int64         // reads that paid Position
	Busy      time.Duration // summed service time of completed reads, all disks
	FillTime  time.Duration
	FillBytes int64
}

// Stats returns the counters.
func (d *Device) Stats() Stats {
	return Stats{
		Reads:     d.reads.Load(),
		Bytes:     d.bytes.Load(),
		Seeks:     d.seeks.Load(),
		Busy:      time.Duration(d.busyNs.Load()),
		FillTime:  time.Duration(d.fillNs.Load()),
		FillBytes: d.fillBytes.Load(),
	}
}

// ResetWaits drops the queue waits recorded so far (the warm-up's).
func (d *Device) ResetWaits() {
	for i := range d.disks {
		ds := &d.disks[i]
		ds.mu.Lock()
		ds.waits = ds.waits[:0]
		ds.mu.Unlock()
	}
}

// QueueWaits returns, sorted, how long each read since ResetWaits
// waited behind earlier reads on its disk. Empty on the instant device.
func (d *Device) QueueWaits() []time.Duration {
	var all []time.Duration
	for i := range d.disks {
		ds := &d.disks[i]
		ds.mu.Lock()
		all = append(all, ds.waits...)
		ds.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}
