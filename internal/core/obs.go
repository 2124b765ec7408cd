package core

import (
	"sync/atomic"
	"time"

	"seqstream/internal/obs"
	"seqstream/internal/slo"
)

// Obs bundles the scheduler's instruments: latency histograms for the
// fetch and client-request paths and an optional span log recording
// each stream's lifecycle. Counters and gauges are not instruments:
// NewServer registers each counter family as a scrape-time read of
// Server.Stats (the per-shard counters the scheduler keeps under its
// shard locks anyway) and each gauge family as a read of the server's
// global atomics, so there is one count per fact and the request path
// writes no shared telemetry line for it. What a staged hit still
// pays is the atomic adds of the request histogram (and of the request
// window, when on); its span is recorded once per staged buffer,
// stamped with the server clock reading the scheduler already took, so
// the span log must run on the server's clock. A nil *Obs in Config
// disables instrumentation entirely.
type Obs struct {
	fetchLatency   *obs.Histogram
	requestLatency *obs.Histogram

	spans *obs.SpanLog

	// reg is retained so the server can register the families it owns
	// the state of: counters, gauges, windows and SLO.
	reg *obs.Registry
}

// NewObs registers the scheduler's histogram families on reg and
// attaches an optional span log (nil disables span recording); the
// counter and gauge families are registered by NewServer. Registration
// is idempotent: repeated servers over one registry share families,
// and counters stay cumulative across them.
func NewObs(reg *obs.Registry, spans *obs.SpanLog) *Obs {
	return &Obs{
		fetchLatency:   reg.Histogram("seqstream_core_fetch_latency_seconds", "read-ahead disk request latency"),
		requestLatency: reg.Histogram("seqstream_core_request_latency_seconds", "client request service latency"),

		spans: spans,
		reg:   reg,
	}
}

// registerServer exposes s's counters and gauges as scrape-time
// families: every counter reads one Stats field, every gauge one of
// the server's global atomics. A later server over the same registry
// takes the families over; counters keep its predecessor's totals.
func (o *Obs) registerServer(s *Server) {
	counters := []struct {
		name, help string
		get        func(*Stats) int64
	}{
		{"seqstream_core_requests_total", "client requests submitted", func(st *Stats) int64 { return st.Requests }},
		{"seqstream_core_direct_reads_total", "requests serviced on the direct (non-sequential) path", func(st *Stats) int64 { return st.DirectReads }},
		{"seqstream_core_buffer_hits_total", "requests served immediately from a staged buffer", func(st *Stats) int64 { return st.BufferHits }},
		{"seqstream_core_queued_served_total", "requests served from a fetch they waited on", func(st *Stats) int64 { return st.QueuedServed }},
		{"seqstream_core_streams_detected_total", "sequential streams detected by the classifier", func(st *Stats) int64 { return st.StreamsDetected }},
		{"seqstream_core_streams_retired_total", "streams that reached end of disk", func(st *Stats) int64 { return st.StreamsRetired }},
		{"seqstream_core_streams_gced_total", "idle streams removed by the garbage collector", func(st *Stats) int64 { return st.StreamsGCed }},
		{"seqstream_core_fetches_total", "read-ahead disk requests issued", func(st *Stats) int64 { return st.Fetches }},
		{"seqstream_core_fetched_bytes_total", "bytes of read-ahead issued to disks", func(st *Stats) int64 { return st.BytesFetched }},
		{"seqstream_core_delivered_bytes_total", "bytes delivered to clients", func(st *Stats) int64 { return st.BytesDelivered }},
		{"seqstream_core_buffers_freed_total", "staged buffers freed after full consumption", func(st *Stats) int64 { return st.BuffersFreed }},
		{"seqstream_core_buffers_gced_total", "staged buffers freed by the garbage collector", func(st *Stats) int64 { return st.BuffersGCed }},
		{"seqstream_core_buffers_evicted_total", "staged buffers reclaimed under memory pressure", func(st *Stats) int64 { return st.BuffersEvicted }},
		{"seqstream_core_nearseq_accepted_total", "requests folded into a stream by proximity", func(st *Stats) int64 { return st.NearSeqAccepted }},
		{"seqstream_core_rotations_total", "streams rotated out of the dispatch set", func(st *Stats) int64 { return st.Rotations }},
		{"seqstream_core_gc_ticks_total", "garbage collector sweeps", func(st *Stats) int64 { return st.GCTicks }},
		{"seqstream_core_fetch_retries_total", "fetches re-issued after transient device errors", func(st *Stats) int64 { return st.FetchRetries }},
		{"seqstream_core_fetch_timeouts_total", "fetches failed by the fetch deadline", func(st *Stats) int64 { return st.FetchTimeouts }},
		{"seqstream_core_breaker_trips_total", "per-disk circuits opened", func(st *Stats) int64 { return st.BreakerTrips }},
		{"seqstream_core_breaker_fast_fails_total", "requests failed fast by an open circuit", func(st *Stats) int64 { return st.BreakerFastFails }},
		{"seqstream_core_steered_fetches_total", "fetches routed to a replica instead of the primary", func(st *Stats) int64 { return st.SteeredFetches }},
		{"seqstream_core_speculations_total", "duplicate fetches issued on a replica for a slow leg", func(st *Stats) int64 { return st.Speculations }},
		{"seqstream_core_spec_wins_total", "speculative legs that completed first and delivered", func(st *Stats) int64 { return st.SpecWins }},
	}
	for _, c := range counters {
		get := c.get
		o.reg.CounterFunc(c.name, c.help, func() int64 { st := s.Stats(); return get(&st) })
	}
	gauges := []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"seqstream_core_memory_in_use_bytes", "bytes held in staging buffers", &s.memUsed},
		{"seqstream_core_peak_memory_bytes", "high-water mark of staged bytes", &s.peakMem},
		{"seqstream_core_live_buffers", "staged or in-flight buffers", &s.bufCount},
		{"seqstream_core_dispatched_streams", "streams in the dispatch set (bounded by D)", &s.dispatched},
		{"seqstream_core_active_streams", "classified streams", &s.liveStreams},
		{"seqstream_core_candidate_queue_depth", "streams waiting for a dispatch slot", &s.liveCands},
		{"seqstream_core_degraded_disks", "disks with an open circuit breaker", &s.degraded},
	}
	for _, g := range gauges {
		v := g.v
		o.reg.GaugeFunc(g.name, g.help, func() float64 { return float64(v.Load()) })
	}
}

// registerSLO exposes the SLO ledger's node-wide SLIs as registry
// families: cumulative verdict counters plus the fast lateness window,
// all via GaugeFunc — the ledger's state lives in per-disk scoring
// shards (the authoritative atomics and windows), so the registry
// merges them at scrape time rather than double-counting. The window
// cannot register as a live histogram family for the same reason:
// there is no node-wide *WindowedHistogram anymore, only the merged
// snapshot. Re-registration rebinds to the newest server's ledger,
// mirroring registerWindows.
func (o *Obs) registerSLO(l *slo.Ledger) {
	o.reg.GaugeFunc("seqstream_core_slo_on_time_total", "deliveries scored on time against their SLO deadline",
		func() float64 { v, _, _ := l.Totals(); return float64(v) })
	o.reg.GaugeFunc("seqstream_core_slo_late_total", "deliveries past their SLO deadline but within the miss boundary",
		func() float64 { _, v, _ := l.Totals(); return float64(v) })
	o.reg.GaugeFunc("seqstream_core_slo_missed_total", "deliveries past the SLO miss boundary or failed outright",
		func() float64 { _, _, v := l.Totals(); return float64(v) })
	o.reg.GaugeFunc("seqstream_core_slo_fast_window_deliveries", "deliveries scored in the fast burn window",
		func() float64 { return float64(l.FastSnapshot().Count) })
	o.reg.GaugeFunc("seqstream_core_slo_fast_window_violations", "late or missed deliveries in the fast burn window",
		func() float64 {
			s := l.FastSnapshot()
			if v := s.Count - s.Buckets[0]; v > 0 {
				return float64(v)
			}
			return 0
		})
	o.reg.GaugeFunc("seqstream_core_slo_fast_window_p99_lateness_seconds", "p99 delivery lateness past the SLO deadline in the fast burn window (0 = on time)",
		func() float64 {
			s := l.FastSnapshot()
			if s.Count == 0 {
				return 0
			}
			return s.Quantile(0.99).Seconds()
		})
}

// registerWindows exposes the node-wide sliding windows as registry
// families (per-disk windows stay on /debug/health — one family per
// disk would explode the scrape). Re-registration rebinds the family
// to the newest server's windows, mirroring GaugeFunc.
func (o *Obs) registerWindows(win *LatencyWindows) {
	o.reg.Window("seqstream_core_request_latency_window_seconds",
		"client request service latency over the sliding window", win.request)
	o.reg.Window("seqstream_core_fetch_latency_window_seconds",
		"read-ahead disk request latency over the sliding window", win.fetch)
}

// Spans returns the attached span log, or nil.
func (o *Obs) Spans() *obs.SpanLog {
	if o == nil {
		return nil
	}
	return o.spans
}

// span records one lifecycle stage at now (the caller's reading of
// the server clock) when a span log is attached. Safe on a nil
// receiver so call sites need no double guard.
func (o *Obs) span(now time.Duration, stream, disk int, stage obs.Stage, off, length int64) {
	if o == nil || o.spans == nil {
		return
	}
	o.spans.RecordAt(now, stream, disk, stage, off, length)
}
