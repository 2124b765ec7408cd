package blockdev

import (
	"errors"
	"time"

	"seqstream/internal/flight"
	"seqstream/internal/iostack"
	"seqstream/internal/sim"
)

// SimClock adapts a simulation engine to the Clock interface. It must
// only be used from the engine's event loop.
type SimClock struct {
	eng *sim.Engine
}

var _ Clock = (*SimClock)(nil)

// NewSimClock wraps an engine.
func NewSimClock(eng *sim.Engine) *SimClock { return &SimClock{eng: eng} }

// Now returns the virtual time.
func (c *SimClock) Now() time.Duration { return c.eng.Now() }

// Schedule runs fn after d of virtual time.
func (c *SimClock) Schedule(d time.Duration, fn func()) (cancel func()) {
	ev := c.eng.Schedule(d, fn)
	return func() { c.eng.Cancel(ev) }
}

// SimDevice adapts a simulated host (iostack.Host) to the Device
// interface. Completions carry nil data.
type SimDevice struct {
	host *iostack.Host
	fr   *flight.Recorder
}

// SetFlight attaches a flight recorder: every completed device read
// records an OpDevRead on the disk's ring, timed by the recorder's
// clock (the engine's virtual clock in simulations). It also cascades
// to the host's controllers so the controller layer stamps its
// accept/complete events with global disk ids. Call it before traffic.
func (d *SimDevice) SetFlight(rec *flight.Recorder) {
	d.fr = rec
	base := 0
	for i := 0; i < d.host.Controllers(); i++ {
		ctrl := d.host.Controller(i)
		ctrl.SetFlight(rec, base)
		base += ctrl.Disks()
	}
}

var (
	_ Device           = (*SimDevice)(nil)
	_ BufferAccounting = (*SimDevice)(nil)
	_ CPUAccounting    = (*SimDevice)(nil)
)

// NewSimDevice wraps a simulated host.
func NewSimDevice(host *iostack.Host) (*SimDevice, error) {
	if host == nil {
		return nil, errors.New("blockdev: nil host")
	}
	return &SimDevice{host: host}, nil
}

// Disks implements Device.
func (d *SimDevice) Disks() int { return d.host.NumDisks() }

// Capacity implements Device.
func (d *SimDevice) Capacity(disk int) int64 { return d.host.DiskCapacity(disk) }

// SetLiveBuffers implements BufferAccounting.
func (d *SimDevice) SetLiveBuffers(n int) { d.host.SetLiveBuffers(n) }

// ChargeRequest implements CPUAccounting.
func (d *SimDevice) ChargeRequest(n int64, done func()) { d.host.ChargeRequest(n, done) }

// ReadAt implements Device.
func (d *SimDevice) ReadAt(disk int, off, length int64, done func([]byte, error)) error {
	if err := CheckRequest(d, disk, off, length); err != nil {
		return err
	}
	return d.host.ReadAt(disk, off, length, func(res iostack.Result) {
		if d.fr != nil {
			d.fr.RingFor(disk).Record(flight.Event{Op: flight.OpDevRead, Disk: uint16(disk),
				Stream: flight.NoStream, Offset: off, Length: length,
				T: time.Duration(res.End), Dur: time.Duration(res.End - res.Start)})
		}
		if done != nil {
			done(nil, nil)
		}
	})
}

var _ Writer = (*SimDevice)(nil)

// WriteAt implements Writer; simulated writes discard data.
func (d *SimDevice) WriteAt(disk int, off, length int64, _ []byte, done func(error)) error {
	if err := CheckRequest(d, disk, off, length); err != nil {
		return err
	}
	return d.host.WriteAt(disk, off, length, func(iostack.Result) {
		if done != nil {
			done(nil)
		}
	})
}
