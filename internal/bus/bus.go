// Package bus models a shared, byte-metered transfer link (PCI-X
// segment or SATA link) for the discrete-event simulator. Transfers are
// serialized FIFO at a fixed bandwidth, which makes the link a
// contention point when many devices share it.
package bus

import (
	"errors"
	"time"

	"seqstream/internal/sim"
)

// Bus is a shared link bound to an engine. All access must happen on
// the engine's event loop.
type Bus struct {
	eng       *sim.Engine
	rate      float64  // bytes per second
	busyUntil sim.Time // the instant the current backlog drains
}

// New creates a bus with the given bandwidth in bytes/second.
func New(eng *sim.Engine, rate float64) (*Bus, error) {
	if eng == nil {
		return nil, errors.New("bus: nil engine")
	}
	if rate <= 0 {
		return nil, errors.New("bus: rate must be positive")
	}
	return &Bus{eng: eng, rate: rate}, nil
}

// Transfer schedules moving n bytes across the link and invokes done
// when the transfer completes. Transfers queue FIFO behind any transfer
// already scheduled. Zero or negative sizes complete after the queue
// drains with no added latency.
func (b *Bus) Transfer(n int64, done func()) {
	start := b.eng.Now()
	if b.busyUntil > start {
		start = b.busyUntil
	}
	var dur time.Duration
	if n > 0 {
		dur = time.Duration(float64(n) / b.rate * float64(time.Second))
	}
	b.busyUntil = start + dur
	end := b.busyUntil
	b.eng.ScheduleAt(end, func() {
		if done != nil {
			done()
		}
	})
}
