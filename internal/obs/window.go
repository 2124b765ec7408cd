package obs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// DefaultWindowBuckets is the number of ring slots a windowed
// histogram uses when the caller passes zero: 12 slots of span/12 each
// (e.g. a 60s window rotates a 5s slot).
const DefaultWindowBuckets = 12

// windowSlot is one time slice of a WindowedHistogram: a full
// power-of-two latency histogram stamped with the epoch (slice index
// since time zero) it currently holds. epoch stores epoch+1 so that
// zero means "never written".
type windowSlot struct {
	epoch   atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// WindowedHistogram is a sliding-window latency histogram: a ring of
// epoch-stamped slots, each covering span/len(slots) of time. Observe
// is lock-free (atomic adds plus an epoch CAS on slot rotation) and
// allocation-free; Snapshot merges the slots whose epoch still falls
// inside the window, so samples older than the span age out without
// any background sweeper.
//
// Semantics are deliberately approximate, matching Histogram's racy
// snapshot contract: a sample observed while another goroutine rotates
// the same slot may be dropped, and a snapshot taken mid-rotation can
// see a partially reset slot. The window covers between len(slots)-1
// and len(slots) slot widths, depending on how far the current slot
// has filled.
//
// The clock is injected (a monotonic `now` func, same discipline as
// SpanLog and the flight recorder) so simulation code can drive
// windows deterministically.
type WindowedHistogram struct {
	now   func() time.Duration
	width int64 // slot width, nanoseconds
	span  time.Duration
	slots []windowSlot
}

// NewWindowedHistogram returns a windowed histogram covering span,
// split into the given number of ring slots (DefaultWindowBuckets when
// zero). now must be monotonic; span must exceed the slot count so
// every slot covers at least a nanosecond.
func NewWindowedHistogram(now func() time.Duration, span time.Duration, slots int) (*WindowedHistogram, error) {
	if now == nil {
		return nil, fmt.Errorf("obs: windowed histogram needs a clock")
	}
	if slots == 0 {
		slots = DefaultWindowBuckets
	}
	if slots < 2 {
		return nil, fmt.Errorf("obs: windowed histogram needs >= 2 slots, got %d", slots)
	}
	if int64(span) < int64(slots) {
		return nil, fmt.Errorf("obs: window span %v too short for %d slots", span, slots)
	}
	// Ceiling division: a truncated width would make len(slots) slices
	// cover less than the declared span whenever span % slots != 0, so
	// the oldest samples inside the span would age out early.
	width := (int64(span) + int64(slots) - 1) / int64(slots)
	return &WindowedHistogram{
		now:   now,
		width: width,
		span:  span,
		slots: make([]windowSlot, slots),
	}, nil
}

// Span returns the window length the histogram was built with.
func (w *WindowedHistogram) Span() time.Duration { return w.span }

// epochAt returns the epoch stamp of instant now (slice index + 1, so
// zero is reserved for never-written slots).
func (w *WindowedHistogram) epochAt(now time.Duration) int64 {
	return int64(now)/w.width + 1
}

// Observe records one duration sample into the current slot, rotating
// the slot to the current epoch first if it still holds an older
// slice. Negative samples clamp to zero. Nil receivers are no-ops so
// call sites can stay unconditional.
func (w *WindowedHistogram) Observe(d time.Duration) {
	if w == nil {
		return
	}
	w.ObserveAt(w.now(), d)
}

// ObserveAt is Observe stamped with a clock reading the caller already
// holds (now must come from the histogram's clock), so a hot path that
// read the clock once need not read it again.
func (w *WindowedHistogram) ObserveAt(now, d time.Duration) {
	if w == nil {
		return
	}
	w.observe(now, d, 1)
}

// ObserveN records n identical samples in one shot — the batched form
// of Observe for callers that coalesce hot-path samples and publish
// them periodically. Every sample lands in the flush-time slot, so
// batches must stay small next to the slot width or the window skews.
// Non-positive n is a no-op.
func (w *WindowedHistogram) ObserveN(d time.Duration, n int64) {
	if w == nil || n <= 0 {
		return
	}
	w.observe(w.now(), d, n)
}

func (w *WindowedHistogram) observe(now, d time.Duration, n int64) {
	if d < 0 {
		d = 0
	}
	e := w.epochAt(now)
	s := &w.slots[int(e%int64(len(w.slots)))]
	for {
		cur := s.epoch.Load()
		if cur == e {
			break
		}
		if cur > e {
			// Another observer already rotated the slot to a newer
			// epoch (our clock read raced); the sample belongs to a
			// slice that no longer exists, drop it.
			return
		}
		if s.epoch.CompareAndSwap(cur, e) {
			// We own the rotation: clear the stale slice. Concurrent
			// observers that saw the new epoch before this reset may
			// lose their sample — accepted, see the type comment.
			s.count.Store(0)
			s.sum.Store(0)
			for i := range s.buckets {
				s.buckets[i].Store(0)
			}
			break
		}
	}
	s.count.Add(n)
	s.sum.Add(n * int64(d))
	s.buckets[histBucketOf(d)].Add(n)
}

// Snapshot merges every slot whose epoch still falls inside the window
// into one HistogramSnapshot. Slots older than the span (or never
// written) are skipped, which is how samples age out.
func (w *WindowedHistogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if w == nil {
		return s
	}
	nowE := w.epochAt(w.now())
	minE := nowE - int64(len(w.slots)) + 1
	for i := range w.slots {
		sl := &w.slots[i]
		e := sl.epoch.Load()
		if e == 0 || e < minE || e > nowE {
			continue
		}
		s.Count += sl.count.Load()
		s.Sum += time.Duration(sl.sum.Load())
		for b := range sl.buckets {
			s.Buckets[b] += sl.buckets[b].Load()
		}
	}
	return s
}

// Tally returns the window's sample count and its zero-bucket count
// ([0, 2) ns) without copying the full bucket array — the cheap form
// of Snapshot for ratio arithmetic over many windows, where callers
// encode "good" samples as zero observations. Same approximate
// contract as Snapshot.
func (w *WindowedHistogram) Tally() (count, zero int64) {
	if w == nil {
		return 0, 0
	}
	nowE := w.epochAt(w.now())
	minE := nowE - int64(len(w.slots)) + 1
	for i := range w.slots {
		sl := &w.slots[i]
		e := sl.epoch.Load()
		if e == 0 || e < minE || e > nowE {
			continue
		}
		count += sl.count.Load()
		zero += sl.buckets[0].Load()
	}
	return count, zero
}

// Mean returns the average sample in the snapshot, or zero with no
// samples.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile returns an upper bound of the p-quantile of the snapshot:
// the top of the power-of-two bucket containing the p-th sample (the
// same estimator as Histogram.Quantile, usable on merged windowed
// snapshots).
func (s HistogramSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(math.Ceil(p * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := range s.Buckets {
		seen += s.Buckets[i]
		if seen >= target {
			if i >= 62 {
				return time.Duration(math.MaxInt64)
			}
			return time.Duration(uint64(1) << uint(i+1))
		}
	}
	return time.Duration(math.MaxInt64)
}

// DefaultEWMAAlpha is the smoothing factor an EWMA uses when built
// with alpha zero: each new sample contributes 20% of the estimate.
const DefaultEWMAAlpha = 0.2

// EWMA is an exponentially weighted moving average of durations with
// lock-free Observe (a CAS loop over the float bits). The zero bit
// pattern is reserved as "no samples yet"; the first observation seeds
// the estimate directly. Use by pointer only — the struct embeds an
// atomic.
type EWMA struct {
	alpha float64
	bits  atomic.Uint64 // math.Float64bits of the estimate, 0 = unseeded
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1];
// zero selects DefaultEWMAAlpha.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultEWMAAlpha
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one sample into the estimate. Negative samples clamp
// to zero. Nil receivers are no-ops.
func (e *EWMA) Observe(d time.Duration) {
	if e == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	for {
		old := e.bits.Load()
		var next float64
		if old == 0 {
			next = float64(d)
		} else {
			next = (1-e.alpha)*math.Float64frombits(old) + e.alpha*float64(d)
		}
		nb := math.Float64bits(next)
		if nb == 0 {
			nb = 1 // keep the unseeded sentinel unambiguous
		}
		if e.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// Seeded reports whether the estimate has absorbed at least one
// sample. Callers ranking disks by EWMA must check this first: an
// unseeded estimate reads as zero, which would otherwise sort an
// idle disk as the fastest one.
func (e *EWMA) Seeded() bool {
	return e != nil && e.bits.Load() != 0
}

// Value returns the current estimate, or zero before any sample.
func (e *EWMA) Value() time.Duration {
	if e == nil {
		return 0
	}
	b := e.bits.Load()
	if b == 0 {
		return 0
	}
	return time.Duration(math.Float64frombits(b))
}
