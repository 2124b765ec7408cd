package blockdev

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the error a scripted fault delivers by default: the
// read completes exactly once, carrying this error instead of data.
var ErrInjected = errors.New("blockdev: injected fault")

// ErrInjectedPersistent is the error a scripted fault delivers when the
// rule is classed persistent: retrying the read cannot succeed.
var ErrInjectedPersistent = errors.New("blockdev: injected persistent fault")

// IsTransient reports whether a device error is worth retrying: either
// it is the default injected fault (ErrInjected, transient by
// convention) or it implements `Transient() bool` and says so.
// Persistent injected faults, validation errors, and unknown errors are
// not transient.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return errors.Is(err, ErrInjected)
}

// FaultMode selects what a matching rule does to a read.
type FaultMode int

const (
	// FaultError completes the read with an injected error.
	FaultError FaultMode = iota
	// FaultHang never completes the read (until ReleaseHung).
	FaultHang
	// FaultDelay adds latency before issuing the read to the inner
	// device — a clock-driven latency spike.
	FaultDelay
)

// String names the mode for diagnostics.
func (m FaultMode) String() string {
	switch m {
	case FaultError:
		return "err"
	case FaultHang:
		return "hang"
	case FaultDelay:
		return "delay"
	}
	return fmt.Sprintf("FaultMode(%d)", int(m))
}

// FaultRule scripts one fault behavior. Rules are matched in order
// against every read; the first match applies. Each rule keeps its own
// per-disk, 1-based index of the reads its Disk/MinLen filter accepts,
// so schedules written against one disk (or against large read-ahead
// fetches only) are unaffected by other traffic.
type FaultRule struct {
	// Disk targets one drive; -1 matches every drive.
	Disk int
	// MinLen restricts the rule to reads of at least this many bytes.
	// Schedulers issue large read-ahead fetches and pass small client
	// requests through directly, so MinLen set to the read-ahead size
	// targets fetches alone. Zero matches every read.
	MinLen int64
	// Mode is what happens to a matching read.
	Mode FaultMode
	// From and To bound the matching read indices: a rule applies to
	// the From-th through (To-1)-th reads its filter accepts. From 0
	// means "from the first read"; To 0 means "forever".
	From, To int64
	// Every thins the window: only every Every-th read inside it
	// faults (0 and 1 both mean every read).
	Every int64
	// Delay is the added latency for FaultDelay.
	Delay time.Duration
	// Persistent delivers ErrInjectedPersistent instead of ErrInjected
	// for FaultError, marking the failure not worth retrying.
	Persistent bool
}

// validate reports structural problems in a rule.
func (r FaultRule) validate() error {
	if r.Disk < -1 {
		return fmt.Errorf("blockdev: fault rule disk %d", r.Disk)
	}
	if r.MinLen < 0 {
		return fmt.Errorf("blockdev: fault rule minlen %d", r.MinLen)
	}
	if r.From < 0 || r.To < 0 || (r.To != 0 && r.To <= r.From) {
		return fmt.Errorf("blockdev: fault rule window [%d,%d)", r.From, r.To)
	}
	if r.Every < 0 {
		return fmt.Errorf("blockdev: fault rule every=%d", r.Every)
	}
	if r.Mode == FaultDelay && r.Delay <= 0 {
		return errors.New("blockdev: delay rule needs a positive delay")
	}
	if r.Mode != FaultDelay && r.Delay != 0 {
		return fmt.Errorf("blockdev: delay set on %v rule", r.Mode)
	}
	return nil
}

// accepts reports whether the rule's static filter admits a read — the
// precondition for the rule's index to advance.
func (r FaultRule) accepts(disk int, length int64) bool {
	if r.Disk != -1 && r.Disk != disk {
		return false
	}
	return length >= r.MinLen
}

// matches reports whether the rule applies to the idx-th (1-based)
// read its filter accepted.
func (r FaultRule) matches(idx int64) bool {
	if r.From > 0 && idx < r.From {
		return false
	}
	if r.To > 0 && idx >= r.To {
		return false
	}
	if r.Every > 1 {
		base := r.From
		if base == 0 {
			base = 1
		}
		if (idx-base)%r.Every != 0 {
			return false
		}
	}
	return true
}

// ScriptDevice wraps a Device with a scriptable fault injector: reads
// matching a rule error, hang, or suffer extra latency, while the rest
// pass through untouched. It composes over any inner device (simulated
// or real) and drives its latency spikes from an injected clock, so
// fault schedules are deterministic under the simulator.
type ScriptDevice struct {
	inner Device
	clock Clock

	mu     sync.Mutex
	rules  []FaultRule
	counts []map[int]int64 // per-rule, per-disk accepted-read index (1-based)
	faults int64
	hung   []hungRead
}

// hungRead is a read the script refused to complete. buf is non-nil
// when the read arrived through ReadInto; releasing it re-issues the
// pooled read.
type hungRead struct {
	disk        int
	off, length int64
	buf         []byte
	done        func([]byte, error)
}

var (
	_ Device            = (*ScriptDevice)(nil)
	_ Writer            = (*ScriptDevice)(nil)
	_ BufferAccounting  = (*ScriptDevice)(nil)
	_ CPUAccounting     = (*ScriptDevice)(nil)
	_ ReaderInto        = (*ScriptDevice)(nil)
	_ ReadIntoSupported = (*ScriptDevice)(nil)
)

// NewScriptDevice wraps inner with a fault script. clock drives delay
// rules (and the async fallbacks of the accounting passthroughs), so it
// must match the clock the scheduler runs on.
func NewScriptDevice(inner Device, clock Clock, rules []FaultRule) (*ScriptDevice, error) {
	if inner == nil {
		return nil, errors.New("blockdev: nil inner device")
	}
	if clock == nil {
		return nil, errors.New("blockdev: nil clock")
	}
	for i, r := range rules {
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("%w (rule %d)", err, i)
		}
	}
	return &ScriptDevice{
		inner:  inner,
		clock:  clock,
		rules:  append([]FaultRule(nil), rules...),
		counts: newCounts(len(rules)),
	}, nil
}

func newCounts(n int) []map[int]int64 {
	counts := make([]map[int]int64, n)
	for i := range counts {
		counts[i] = make(map[int]int64)
	}
	return counts
}

// SetRules atomically replaces the fault script (nil clears it) and
// resets the read counters, so the new rules' windows count from the
// moment of the swap.
func (d *ScriptDevice) SetRules(rules []FaultRule) error {
	for i, r := range rules {
		if err := r.validate(); err != nil {
			return fmt.Errorf("%w (rule %d)", err, i)
		}
	}
	d.mu.Lock()
	d.rules = append([]FaultRule(nil), rules...)
	d.counts = newCounts(len(rules))
	d.mu.Unlock()
	return nil
}

// Faults returns how many reads were failed by error rules.
func (d *ScriptDevice) Faults() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faults
}

// Hung returns how many reads are currently held by hang rules.
func (d *ScriptDevice) Hung() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.hung)
}

// ReleaseHung completes every held read with err (nil releases them
// through the inner device as ordinary reads) and returns how many
// were released. Tests use it to shut down without leaking callbacks.
func (d *ScriptDevice) ReleaseHung(err error) int {
	d.mu.Lock()
	held := d.hung
	d.hung = nil
	d.mu.Unlock()
	for _, h := range held {
		if err != nil {
			if h.done != nil {
				h.done(nil, err)
			}
			continue
		}
		if ierr := d.read(h.disk, h.off, h.length, h.buf, h.done); ierr != nil && h.done != nil {
			h.done(nil, ierr)
		}
	}
	return len(held)
}

// Disks implements Device.
func (d *ScriptDevice) Disks() int { return d.inner.Disks() }

// Capacity implements Device.
func (d *ScriptDevice) Capacity(disk int) int64 { return d.inner.Capacity(disk) }

// ReadAt implements Device, applying the first matching rule.
func (d *ScriptDevice) ReadAt(disk int, off, length int64, done func([]byte, error)) error {
	if err := CheckRequest(d, disk, off, length); err != nil {
		return err
	}
	return d.apply(disk, off, length, nil, done)
}

// ReadInto implements ReaderInto by delegation, with the fault script
// applied the same way as ReadAt. Callers must consult
// SupportsReadInto first: the forwarding only works when the inner
// device has a pooled read path of its own.
func (d *ScriptDevice) ReadInto(disk int, off, length int64, buf []byte, done func([]byte, error)) error {
	if err := CheckRequest(d, disk, off, length); err != nil {
		return err
	}
	if _, ok := d.inner.(ReaderInto); !ok {
		return errors.New("blockdev: inner device has no ReadInto")
	}
	return d.apply(disk, off, length, buf, done)
}

// SupportsReadInto implements ReadIntoSupported: the wrapper's pooled
// path exists exactly when the wrapped device's does (recursing
// through nested wrappers).
func (d *ScriptDevice) SupportsReadInto() bool {
	if _, ok := d.inner.(ReaderInto); !ok {
		return false
	}
	if g, ok := d.inner.(ReadIntoSupported); ok {
		return g.SupportsReadInto()
	}
	return true
}

// read issues the read to the inner device through whichever path the
// caller used (buf nil → ReadAt, else ReadInto).
func (d *ScriptDevice) read(disk int, off, length int64, buf []byte, done func([]byte, error)) error {
	if buf != nil {
		return d.inner.(ReaderInto).ReadInto(disk, off, length, buf, done)
	}
	return d.inner.ReadAt(disk, off, length, done)
}

// apply matches the fault script and runs the read's fate: pass
// through, hang, delay, or injected error.
func (d *ScriptDevice) apply(disk int, off, length int64, buf []byte, done func([]byte, error)) error {
	d.mu.Lock()
	// Every rule whose filter accepts the read advances its index, even
	// when an earlier rule wins: later windows stay aligned with the
	// traffic the rule observes, not with which rule happened to fire.
	var rule *FaultRule
	for i := range d.rules {
		if !d.rules[i].accepts(disk, length) {
			continue
		}
		d.counts[i][disk]++
		if rule == nil && d.rules[i].matches(d.counts[i][disk]) {
			rule = &d.rules[i]
		}
	}
	if rule == nil {
		d.mu.Unlock()
		return d.read(disk, off, length, buf, done)
	}
	switch rule.Mode {
	case FaultHang:
		d.hung = append(d.hung, hungRead{disk: disk, off: off, length: length, buf: buf, done: done})
		d.mu.Unlock()
		return nil
	case FaultDelay:
		delay := rule.Delay
		d.mu.Unlock()
		d.clock.Schedule(delay, func() {
			if err := d.read(disk, off, length, buf, done); err != nil && done != nil {
				done(nil, err)
			}
		})
		return nil
	default: // FaultError
		d.faults++
		injected := ErrInjected
		if rule.Persistent {
			injected = ErrInjectedPersistent
		}
		d.mu.Unlock()
		// Deliver the failure through the inner device's completion
		// machinery so timing (sim events, worker goroutines) stays
		// realistic — the disk did the work, the result is garbage.
		return d.read(disk, off, length, buf, func([]byte, error) {
			if done != nil {
				done(nil, injected)
			}
		})
	}
}

// WriteAt implements Writer by delegation; the fault script applies to
// reads only. Writes to a read-only inner device fail with ErrReadOnly.
func (d *ScriptDevice) WriteAt(disk int, off, length int64, data []byte, done func(error)) error {
	w, ok := d.inner.(Writer)
	if !ok {
		return ErrReadOnly
	}
	return w.WriteAt(disk, off, length, data, done)
}

// SetLiveBuffers implements BufferAccounting by delegation (no-op when
// the inner device does not model buffer cost).
func (d *ScriptDevice) SetLiveBuffers(n int) {
	if a, ok := d.inner.(BufferAccounting); ok {
		a.SetLiveBuffers(n)
	}
}

// ChargeRequest implements CPUAccounting by delegation. When the inner
// device does not model CPU cost the completion still runs — off the
// caller's stack, through the clock, because core invokes ChargeRequest
// under its lock and the callback may re-enter the scheduler.
func (d *ScriptDevice) ChargeRequest(n int64, done func()) {
	if c, ok := d.inner.(CPUAccounting); ok {
		c.ChargeRequest(n, done)
		return
	}
	if done != nil {
		d.clock.Schedule(0, done)
	}
}

// ParseFaultScript parses the CLI fault grammar: rules separated by
// ';', each a comma-separated list of key=value fields.
//
//	mode=err|hang|delay   what matching reads suffer (required)
//	disk=N                target disk (default: all disks)
//	minlen=BYTES          only reads of at least this size (e.g. the
//	                      read-ahead size, to fault fetches alone)
//	from=N, to=N          1-based read-index window [from, to), counted
//	                      over the reads the disk/minlen filter accepts
//	every=N               fault every Nth read inside the window
//	delay=DURATION        added latency (delay mode, e.g. 50ms)
//	class=transient|persistent
//	                      error class (err mode; default transient)
//
// Example: "disk=0,mode=err,every=3;disk=1,mode=hang,from=10".
func ParseFaultScript(s string) ([]FaultRule, error) {
	var rules []FaultRule
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rule := FaultRule{Disk: -1}
		modeSet := false
		for _, field := range strings.Split(part, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
			if !ok {
				return nil, fmt.Errorf("blockdev: fault field %q is not key=value", field)
			}
			var err error
			switch key {
			case "disk":
				rule.Disk, err = strconv.Atoi(val)
			case "minlen":
				rule.MinLen, err = strconv.ParseInt(val, 10, 64)
			case "mode":
				modeSet = true
				switch val {
				case "err":
					rule.Mode = FaultError
				case "hang":
					rule.Mode = FaultHang
				case "delay":
					rule.Mode = FaultDelay
				default:
					err = fmt.Errorf("blockdev: unknown fault mode %q", val)
				}
			case "from":
				rule.From, err = strconv.ParseInt(val, 10, 64)
			case "to":
				rule.To, err = strconv.ParseInt(val, 10, 64)
			case "every":
				rule.Every, err = strconv.ParseInt(val, 10, 64)
			case "delay":
				rule.Delay, err = time.ParseDuration(val)
			case "class":
				switch val {
				case "transient":
					rule.Persistent = false
				case "persistent":
					rule.Persistent = true
				default:
					err = fmt.Errorf("blockdev: unknown fault class %q", val)
				}
			default:
				err = fmt.Errorf("blockdev: unknown fault field %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("blockdev: fault rule %q: %w", part, err)
			}
		}
		if !modeSet {
			return nil, fmt.Errorf("blockdev: fault rule %q has no mode", part)
		}
		if err := rule.validate(); err != nil {
			return nil, fmt.Errorf("%w (rule %q)", err, part)
		}
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		return nil, errors.New("blockdev: empty fault script")
	}
	return rules, nil
}
