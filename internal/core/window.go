package core

import (
	"time"

	"seqstream/internal/obs"
)

// LatencyWindows is the scheduler's sliding-window latency telemetry,
// built when Config.WindowSpan is positive: a node-wide request
// window, a node-wide fetch window, and a per-disk fetch window plus
// EWMA. Unlike the cumulative Obs histograms these cover only the last
// span of traffic, which is what the health rollup (and the
// straggler-aware dispatch work it feeds) actually needs — a disk that
// was slow an hour ago is not slow now.
//
// All observation paths are lock-free and allocation-free; the
// observe hooks sit beside the cumulative histogram calls on the
// shard hot paths and are nil-guarded the same way.
type LatencyWindows struct {
	span    time.Duration
	request *obs.WindowedHistogram
	fetch   *obs.WindowedHistogram
	disks   []diskWindow
}

// diskWindow is one disk's windowed fetch telemetry.
type diskWindow struct {
	fetch *obs.WindowedHistogram
	ewma  *obs.EWMA
}

// newLatencyWindows sizes the per-disk slice for disks and builds
// every window over the injected clock with obs.DefaultWindowBuckets
// ring slots.
func newLatencyWindows(now func() time.Duration, span time.Duration, disks int) (*LatencyWindows, error) {
	const buckets = obs.DefaultWindowBuckets
	w := &LatencyWindows{span: span, disks: make([]diskWindow, disks)}
	var err error
	if w.request, err = obs.NewWindowedHistogram(now, span, buckets); err != nil {
		return nil, err
	}
	if w.fetch, err = obs.NewWindowedHistogram(now, span, buckets); err != nil {
		return nil, err
	}
	for i := range w.disks {
		if w.disks[i].fetch, err = obs.NewWindowedHistogram(now, span, buckets); err != nil {
			return nil, err
		}
		w.disks[i].ewma = obs.NewEWMA(0)
	}
	return w, nil
}

// Span returns the window length.
func (w *LatencyWindows) Span() time.Duration {
	if w == nil {
		return 0
	}
	return w.span
}

// Request returns the node-wide windowed request-latency snapshot.
func (w *LatencyWindows) Request() obs.HistogramSnapshot {
	if w == nil {
		return obs.HistogramSnapshot{}
	}
	return w.request.Snapshot()
}

// Fetch returns the node-wide windowed fetch-latency snapshot.
func (w *LatencyWindows) Fetch() obs.HistogramSnapshot {
	if w == nil {
		return obs.HistogramSnapshot{}
	}
	return w.fetch.Snapshot()
}

// DiskFetch returns disk's windowed fetch-latency snapshot (zero for
// out-of-range disks).
func (w *LatencyWindows) DiskFetch(disk int) obs.HistogramSnapshot {
	if w == nil || disk < 0 || disk >= len(w.disks) {
		return obs.HistogramSnapshot{}
	}
	return w.disks[disk].fetch.Snapshot()
}

// DiskEWMA returns disk's fetch-latency EWMA (zero for out-of-range
// disks or before any fetch).
func (w *LatencyWindows) DiskEWMA(disk int) time.Duration {
	if w == nil || disk < 0 || disk >= len(w.disks) {
		return 0
	}
	return w.disks[disk].ewma.Value()
}

// DiskEWMASeeded reports whether disk's EWMA has absorbed at least one
// fetch sample. Steering and speculation consult it before ranking:
// an unseeded EWMA reads zero, which would make an idle (never
// measured) disk look like the fastest replica.
func (w *LatencyWindows) DiskEWMASeeded(disk int) bool {
	if w == nil || disk < 0 || disk >= len(w.disks) {
		return false
	}
	return w.disks[disk].ewma.Seeded()
}

// observeRequest records one served client request (buffer hit or
// direct read) of latency d, completed at now, into the request window.
func (w *LatencyWindows) observeRequest(now, d time.Duration) {
	w.request.ObserveAt(now, d)
}

// observeFetch records one read-ahead fetch of latency d, completed at
// now, into the node-wide and per-disk fetch windows and the disk's
// EWMA.
func (w *LatencyWindows) observeFetch(disk int, now, d time.Duration) {
	w.fetch.ObserveAt(now, d)
	if disk >= 0 && disk < len(w.disks) {
		w.disks[disk].fetch.ObserveAt(now, d)
		w.disks[disk].ewma.Observe(d)
	}
}
