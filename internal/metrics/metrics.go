// Package metrics accumulates throughput and response-time statistics
// for simulated and real runs. Aggregate throughput follows the paper's
// method (§5): the throughput delivered by a disk is the sum of the
// throughputs of the individual streams it services.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// LatencySummary accumulates response-time observations with a
// power-of-two histogram for quantile estimation.
type LatencySummary struct {
	count   int64
	sum     time.Duration
	max     time.Duration
	buckets [64]int64 // bucket i holds latencies in [2^i, 2^(i+1)) ns
}

// Observe records one latency sample. Negative samples are clamped to
// zero.
func (l *LatencySummary) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if d > l.max {
		l.max = d
	}
	l.count++
	l.sum += d
	l.buckets[bucketOf(d)]++
}

// bucketOf returns ⌊log2 d⌋ in nanoseconds, 0 for d <= 0.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d)) - 1
}

// Count returns the number of samples.
func (l *LatencySummary) Count() int64 { return l.count }

// Mean returns the average latency, or zero with no samples.
func (l *LatencySummary) Mean() time.Duration {
	if l.count == 0 {
		return 0
	}
	return time.Duration(int64(l.sum) / l.count)
}

// Max returns the largest sample.
func (l *LatencySummary) Max() time.Duration { return l.max }

// Quantile returns an upper bound of the p-quantile (0 <= p <= 1) from
// the histogram: the top of the bucket containing the p-th sample.
func (l *LatencySummary) Quantile(p float64) time.Duration {
	if l.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(math.Ceil(p * float64(l.count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range l.buckets {
		seen += c
		if seen >= target {
			if i >= 62 {
				// Bucket 62's upper edge is 2^63 ns, which overflows a
				// Duration; the tracked maximum is the tightest bound.
				return l.max
			}
			top := time.Duration(uint64(1) << uint(i+1))
			if top > l.max {
				top = l.max
			}
			return top
		}
	}
	return l.max
}

// FractionUnder returns a lower bound on the fraction of samples at or
// below d, from the histogram: only full power-of-two buckets whose
// upper edge does not exceed d are counted, so samples in the bucket
// straddling d are conservatively treated as over it. Zero with no
// samples.
func (l *LatencySummary) FractionUnder(d time.Duration) float64 {
	if l.count == 0 || d <= 0 {
		return 0
	}
	var under int64
	for i, c := range l.buckets {
		if i >= 62 || time.Duration(uint64(1)<<uint(i+1)) > d {
			break
		}
		under += c
	}
	return float64(under) / float64(l.count)
}

// Merge folds other into l.
func (l *LatencySummary) Merge(other *LatencySummary) {
	if other == nil || other.count == 0 {
		return
	}
	if other.max > l.max {
		l.max = other.max
	}
	l.count += other.count
	l.sum += other.sum
	for i := range l.buckets {
		l.buckets[i] += other.buckets[i]
	}
}

// StreamStats accumulates one stream's delivery record.
type StreamStats struct {
	Bytes    int64
	Requests int64
	First    time.Duration // time of first issue
	Last     time.Duration // time of last completion
	Latency  LatencySummary
	hasFirst bool
}

// Throughput returns the stream's delivered bytes/second across its
// active interval.
func (s *StreamStats) Throughput() float64 {
	span := s.Last - s.First
	if span <= 0 || s.Bytes == 0 {
		return 0
	}
	return float64(s.Bytes) / span.Seconds()
}

// Recorder collects per-stream statistics.
type Recorder struct {
	streams map[int]*StreamStats
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{streams: make(map[int]*StreamStats)}
}

// Record notes a completed request on a stream: n bytes issued at
// start, completed at end (both on the same clock).
func (r *Recorder) Record(stream int, n int64, start, end time.Duration) {
	s := r.streams[stream]
	if s == nil {
		s = &StreamStats{}
		r.streams[stream] = s
	}
	if !s.hasFirst || start < s.First {
		s.First = start
		s.hasFirst = true
	}
	if end > s.Last {
		s.Last = end
	}
	s.Bytes += n
	s.Requests++
	s.Latency.Observe(end - start)
}

// Streams returns the number of streams observed.
func (r *Recorder) Streams() int { return len(r.streams) }

// Stream returns the stats for one stream, or nil.
func (r *Recorder) Stream(id int) *StreamStats { return r.streams[id] }

// StreamIDs returns the observed stream ids in ascending order.
func (r *Recorder) StreamIDs() []int {
	ids := make([]int, 0, len(r.streams))
	for id := range r.streams {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// TotalBytes returns bytes delivered across all streams.
func (r *Recorder) TotalBytes() int64 {
	var total int64
	for _, s := range r.streams {
		total += s.Bytes
	}
	return total
}

// TotalRequests returns completed requests across all streams.
func (r *Recorder) TotalRequests() int64 {
	var total int64
	for _, s := range r.streams {
		total += s.Requests
	}
	return total
}

// AggregateThroughput returns the sum of per-stream throughputs in
// bytes/second (the paper's reporting convention).
func (r *Recorder) AggregateThroughput() float64 {
	var total float64
	for _, s := range r.streams {
		total += s.Throughput()
	}
	return total
}

// AggregateMBps returns AggregateThroughput in MB/s (decimal).
func (r *Recorder) AggregateMBps() float64 {
	return r.AggregateThroughput() / 1e6
}

// WallThroughput returns total bytes divided by the wall interval from
// the earliest issue to the latest completion, in bytes/second.
func (r *Recorder) WallThroughput() float64 {
	var first, last time.Duration
	started := false
	for _, s := range r.streams {
		if !s.hasFirst {
			continue
		}
		if !started || s.First < first {
			first = s.First
			started = true
		}
		if s.Last > last {
			last = s.Last
		}
	}
	span := last - first
	if !started || span <= 0 {
		return 0
	}
	return float64(r.TotalBytes()) / span.Seconds()
}

// MergedLatency returns the latency summary across all streams.
func (r *Recorder) MergedLatency() LatencySummary {
	var merged LatencySummary
	for _, s := range r.streams {
		merged.Merge(&s.Latency)
	}
	return merged
}
