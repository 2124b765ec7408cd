// Package iostack assembles the simulated storage-node I/O hierarchy:
// one host with a CPU cost model, one or more controllers, and the
// drives behind them. It provides the three configurations the paper's
// §3 analysis uses (base 1×1, medium 2×4, large 16×4) plus the §5
// testbed (one controller, eight drives).
//
// The host CPU model charges per-request and per-byte costs on a
// serialized virtual CPU, which reproduces the §5.3 observation that a
// host dispatching very many large buffers is limited by buffer
// management rather than disk mechanics (Fig. 12 vs Fig. 13).
package iostack

import (
	"errors"
	"fmt"
	"time"

	"seqstream/internal/controller"
	"seqstream/internal/disk"
	"seqstream/internal/sim"
)

// CPUModel describes host-side software costs.
type CPUModel struct {
	// PerRequest is the fixed kernel/driver path cost per I/O.
	PerRequest time.Duration
	// CopyRate is the effective buffer-management bandwidth of the
	// host in bytes/second: each n-byte I/O charges n/CopyRate of CPU
	// time (copy, mapping, cache pollution). Zero disables the charge.
	CopyRate float64
	// PerLiveBuffer is the added management cost per request per live
	// I/O buffer (allocation tables, lookups). This is what penalizes
	// very large dispatch sets.
	PerLiveBuffer time.Duration
}

// DefaultCPU models the paper's dual Opteron 242 storage node: ~20 µs
// per I/O, ~2.4 GB/s effective buffer-management bandwidth, and ~0.4 µs
// of bookkeeping per live buffer per request.
func DefaultCPU() CPUModel {
	return CPUModel{
		PerRequest:    20 * time.Microsecond,
		CopyRate:      2.4e9,
		PerLiveBuffer: 400 * time.Nanosecond,
	}
}

// Validate reports configuration errors.
func (m CPUModel) Validate() error {
	if m.PerRequest < 0 || m.CopyRate < 0 || m.PerLiveBuffer < 0 {
		return errors.New("iostack: CPU costs must be >= 0")
	}
	return nil
}

// ControllerSpec pairs a controller configuration with its drives.
type ControllerSpec struct {
	Controller controller.Config
	Disks      []disk.Config
}

// Config describes a whole storage node.
type Config struct {
	Controllers []ControllerSpec
	CPU         CPUModel
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Controllers) == 0 {
		return errors.New("iostack: need at least one controller")
	}
	for i, spec := range c.Controllers {
		if err := spec.Controller.Validate(); err != nil {
			return fmt.Errorf("iostack: controller %d: %w", i, err)
		}
		if len(spec.Disks) == 0 {
			return fmt.Errorf("iostack: controller %d has no disks", i)
		}
		for j, dc := range spec.Disks {
			if err := dc.Validate(); err != nil {
				return fmt.Errorf("iostack: controller %d disk %d: %w", i, j, err)
			}
		}
	}
	return c.CPU.Validate()
}

// Result describes a completed host read.
type Result struct {
	Start sim.Time
	End   sim.Time
	// ControllerHit and DiskHit propagate cache outcomes.
	ControllerHit bool
	DiskHit       bool
}

// Host is a storage node bound to an engine. All access must happen on
// the engine loop.
type Host struct {
	eng   *sim.Engine
	cfg   Config
	ctrls []*controller.Controller
	// diskMap maps a global disk id to (controller, local disk).
	diskMap []diskRef

	cpuBusyUntil sim.Time
	liveBuffers  int
}

type diskRef struct {
	ctrl  int
	local int
}

// New builds the node described by cfg.
func New(eng *sim.Engine, cfg Config) (*Host, error) {
	if eng == nil {
		return nil, errors.New("iostack: nil engine")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Host{eng: eng, cfg: cfg}
	for ci, spec := range cfg.Controllers {
		disks := make([]*disk.Disk, len(spec.Disks))
		for di, dc := range spec.Disks {
			d, err := disk.New(eng, dc)
			if err != nil {
				return nil, fmt.Errorf("iostack: controller %d disk %d: %w", ci, di, err)
			}
			disks[di] = d
			h.diskMap = append(h.diskMap, diskRef{ctrl: ci, local: di})
		}
		ctrl, err := controller.New(eng, spec.Controller, disks)
		if err != nil {
			return nil, fmt.Errorf("iostack: controller %d: %w", ci, err)
		}
		h.ctrls = append(h.ctrls, ctrl)
	}
	return h, nil
}

// NumDisks returns the number of drives across all controllers.
func (h *Host) NumDisks() int { return len(h.diskMap) }

// Controllers returns the number of controllers.
func (h *Host) Controllers() int { return len(h.ctrls) }

// Controller returns the i-th controller.
func (h *Host) Controller(i int) *controller.Controller { return h.ctrls[i] }

// Disk returns the drive behind a global disk id.
func (h *Host) Disk(global int) *disk.Disk {
	ref := h.diskMap[global]
	return h.ctrls[ref.ctrl].Disk(ref.local)
}

// DiskCapacity returns the capacity of a global disk id.
func (h *Host) DiskCapacity(global int) int64 {
	return h.Disk(global).Capacity()
}

// SetLiveBuffers tells the CPU model how many host I/O buffers are
// currently allocated (the dispatch + buffered sets). The core
// scheduler updates this as buffers come and go.
func (h *Host) SetLiveBuffers(n int) {
	if n < 0 {
		n = 0
	}
	h.liveBuffers = n
}

// CPUWork serializes d of CPU time on the host CPU and runs done when
// it finishes.
func (h *Host) CPUWork(d time.Duration, done func()) {
	if d < 0 {
		d = 0
	}
	start := h.eng.Now()
	if h.cpuBusyUntil > start {
		start = h.cpuBusyUntil
	}
	h.cpuBusyUntil = start + d
	h.eng.ScheduleAt(h.cpuBusyUntil, func() {
		if done != nil {
			done()
		}
	})
}

// ChargeRequest serializes the host-side cost of delivering an n-byte
// request from host memory (buffer lookup, copy, bookkeeping) and runs
// done when the work retires. Device reads charge the same cost on
// their completion path automatically; this entry point exists for
// requests served from host memory without a device read.
func (h *Host) ChargeRequest(n int64, done func()) {
	h.CPUWork(h.requestCPUCost(n), done)
}

// requestCPUCost returns the host CPU time charged for an n-byte I/O at
// the current live-buffer level.
func (h *Host) requestCPUCost(n int64) time.Duration {
	m := h.cfg.CPU
	cost := m.PerRequest + time.Duration(h.liveBuffers)*m.PerLiveBuffer
	if m.CopyRate > 0 && n > 0 {
		cost += time.Duration(float64(n) / m.CopyRate * float64(time.Second))
	}
	return cost
}

// ReadAt issues an asynchronous read of [off, off+n) against a global
// disk id. done fires on the engine loop after controller delivery and
// host CPU processing.
func (h *Host) ReadAt(global int, off, n int64, done func(Result)) error {
	return h.submit(global, off, n, false, done)
}

// WriteAt issues an asynchronous write of [off, off+n) against a
// global disk id, with the same host CPU accounting as reads.
func (h *Host) WriteAt(global int, off, n int64, done func(Result)) error {
	return h.submit(global, off, n, true, done)
}

func (h *Host) submit(global int, off, n int64, write bool, done func(Result)) error {
	if global < 0 || global >= len(h.diskMap) {
		return fmt.Errorf("iostack: disk %d out of range [0,%d)", global, len(h.diskMap))
	}
	ref := h.diskMap[global]
	start := h.eng.Now()
	complete := func(cres controller.Result) {
		// Host-side completion: buffer management on the virtual CPU.
		h.CPUWork(h.requestCPUCost(n), func() {
			if done != nil {
				done(Result{
					Start:         start,
					End:           h.eng.Now(),
					ControllerHit: cres.ControllerHit,
					DiskHit:       cres.DiskHit,
				})
			}
		})
	}
	var err error
	if write {
		err = h.ctrls[ref.ctrl].SubmitWrite(ref.local, off, n, complete)
	} else {
		err = h.ctrls[ref.ctrl].Submit(ref.local, off, n, complete)
	}
	if err != nil {
		return fmt.Errorf("iostack: %w", err)
	}
	return nil
}
