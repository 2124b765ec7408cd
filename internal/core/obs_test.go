package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/flight"
	"seqstream/internal/obs"
)

// obsNode builds a simulated node with a registry, span log, and
// flight recorder attached.
func obsNode(t *testing.T, cfg Config) (*testNode, *obs.Registry, *obs.SpanLog) {
	t.Helper()
	reg := obs.NewRegistry()
	// The span log needs the node's clock, which newNode creates, so
	// build the plain node first and swap in an instrumented server.
	n := baseNode(t, cfg)
	spans, err := obs.NewSpanLog(n.clock.Now, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the server with instruments attached.
	cfg.Obs = NewObs(reg, spans)
	if cfg.Flight, err = flight.New(n.clock.Now, 1, 1<<14); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(n.dev, n.clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.server.Close()
	n.server = srv
	t.Cleanup(srv.Close)
	return n, reg, spans
}

// counterFamilies maps every core counter family to the Stats field it
// reads.
func counterFamilies(st Stats) map[string]int64 {
	return map[string]int64{
		"seqstream_core_requests_total":           st.Requests,
		"seqstream_core_direct_reads_total":       st.DirectReads,
		"seqstream_core_buffer_hits_total":        st.BufferHits,
		"seqstream_core_queued_served_total":      st.QueuedServed,
		"seqstream_core_streams_detected_total":   st.StreamsDetected,
		"seqstream_core_streams_retired_total":    st.StreamsRetired,
		"seqstream_core_streams_gced_total":       st.StreamsGCed,
		"seqstream_core_fetches_total":            st.Fetches,
		"seqstream_core_fetched_bytes_total":      st.BytesFetched,
		"seqstream_core_delivered_bytes_total":    st.BytesDelivered,
		"seqstream_core_buffers_freed_total":      st.BuffersFreed,
		"seqstream_core_buffers_gced_total":       st.BuffersGCed,
		"seqstream_core_buffers_evicted_total":    st.BuffersEvicted,
		"seqstream_core_nearseq_accepted_total":   st.NearSeqAccepted,
		"seqstream_core_rotations_total":          st.Rotations,
		"seqstream_core_gc_ticks_total":           st.GCTicks,
		"seqstream_core_fetch_retries_total":      st.FetchRetries,
		"seqstream_core_fetch_timeouts_total":     st.FetchTimeouts,
		"seqstream_core_breaker_trips_total":      st.BreakerTrips,
		"seqstream_core_breaker_fast_fails_total": st.BreakerFastFails,
		"seqstream_core_steered_fetches_total":    st.SteeredFetches,
		"seqstream_core_speculations_total":       st.Speculations,
		"seqstream_core_spec_wins_total":          st.SpecWins,
	}
}

// checkCounters asserts every counter family is an integer equal to
// want's entry.
func checkCounters(t *testing.T, reg *obs.Registry, want map[string]int64) {
	t.Helper()
	vars := reg.Vars()
	for name, w := range want {
		got, ok := vars[name].(int64)
		if !ok {
			t.Errorf("%s = %#v, want an int64 counter", name, vars[name])
			continue
		}
		if got != w {
			t.Errorf("%s = %d, want %d (Stats)", name, got, w)
		}
	}
}

func TestObsCountersMatchStats(t *testing.T) {
	cfg := DefaultConfig(8<<20, 1<<20)
	n, reg, _ := obsNode(t, cfg)
	n.runStreams(t, 4, 32)

	st := n.server.Stats()
	snap := n.server.Snapshot()
	if st.StreamsDetected == 0 || st.Rotations == 0 {
		t.Fatalf("workload detected %d streams and rotated %d; instrumentation untested",
			st.StreamsDetected, st.Rotations)
	}
	counters := counterFamilies(st)
	checkCounters(t, reg, counters)
	gauges := map[string]int64{
		"seqstream_core_memory_in_use_bytes":   st.MemoryInUse,
		"seqstream_core_peak_memory_bytes":     st.PeakMemory,
		"seqstream_core_live_buffers":          st.LiveBuffers,
		"seqstream_core_degraded_disks":        st.DisksDegraded,
		"seqstream_core_dispatched_streams":    int64(snap.DispatchedStreams),
		"seqstream_core_active_streams":        int64(snap.ActiveStreams),
		"seqstream_core_candidate_queue_depth": int64(snap.CandidateQueue),
	}
	vars := reg.Vars()
	for name, want := range gauges {
		if got, ok := vars[name].(float64); !ok || got != float64(want) {
			t.Errorf("%s = %#v, want %d", name, vars[name], want)
		}
	}
	// Every scalar core family outside the SLO set is checked above.
	for name, v := range vars {
		if _, isHist := v.(map[string]any); isHist || !strings.HasPrefix(name, "seqstream_core_") ||
			strings.HasPrefix(name, "seqstream_core_slo_") {
			continue
		}
		if _, ok := counters[name]; !ok {
			if _, ok := gauges[name]; !ok {
				t.Errorf("family %s is not checked against Stats", name)
			}
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		"# TYPE seqstream_core_requests_total counter",
		"# TYPE seqstream_core_dispatched_streams gauge",
		"seqstream_core_request_latency_seconds_count",
		"seqstream_core_fetch_latency_seconds_count",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q", line)
		}
	}
}

// TestObsCountersSumAcrossServers registers two servers in sequence
// over one registry, as experiment cells do: every counter family must
// report the sum of both servers' Stats, not just the newest one's.
func TestObsCountersSumAcrossServers(t *testing.T) {
	reg := obs.NewRegistry()
	var sum Stats
	for i := 0; i < 2; i++ {
		cfg := DefaultConfig(8<<20, 1<<20)
		cfg.Obs = NewObs(reg, nil)
		n := baseNode(t, cfg)
		n.runStreams(t, 2+2*i, 16)
		st := n.server.Stats()
		sum.add(&st)
		n.server.Close()
	}
	if sum.Requests == 0 {
		t.Fatal("no requests served")
	}
	checkCounters(t, reg, counterFamilies(sum))
}

// countingClock counts its Now calls.
type countingClock struct {
	blockdev.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Duration {
	c.reads.Add(1)
	return c.Clock.Now()
}

// TestStagedHitReadsClockOnce pins the staged-hit clock budget. With
// every telemetry sink on one counting clock — span log, windows, SLO
// ledger and flight recorder — a staged hit that is not its buffer's
// first reads the clock exactly once, in Submit: that reading stamps
// the window, the SLO score and Response.End. Deliver spans are
// recorded once per staged buffer.
func TestStagedHitReadsClockOnce(t *testing.T) {
	clock := &countingClock{Clock: blockdev.NewRealClock()}
	spans, err := obs.NewSpanLog(clock.Now, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := flight.New(clock.Now, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := blockdev.NewMemDevice(1, 1<<30, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(dev, clock, Config{
		ReadAhead:  1 << 20,
		Memory:     64 << 20,
		GCPeriod:   time.Hour, // no sweep may run beside the measured Submits
		EvictIdle:  time.Hour,
		Obs:        NewObs(obs.NewRegistry(), spans),
		WindowSpan: time.Minute,
		SLOTarget:  50 * time.Millisecond,
		Flight:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const req = 64 << 10
	ch := make(chan Response, 1)
	done := func(r Response) { ch <- r }
	reads := make(map[int64]int64) // staged hit offset → clock reads in its Submit
	for off := int64(0); off < 64*req; off += req {
		before := clock.reads.Load()
		if err := srv.Submit(Request{Offset: off, Length: req, Done: done}); err != nil {
			t.Fatal(err)
		}
		n := clock.reads.Load() - before
		var r Response
		select {
		case r = <-ch:
		default:
			r = <-ch // a direct read completes through the clock, off this goroutine
		}
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.FromBuffer {
			reads[off] = n
			if r.End != r.Start {
				t.Errorf("staged hit at %d: End %v != Start %v", off, r.End, r.Start)
			}
		}
	}

	firsts := make(map[int64]bool) // buffer starts: each buffer's first hit
	for _, e := range spans.Snapshot() {
		if e.Stage == obs.StageFetch {
			firsts[e.Offset] = true
		}
	}
	for _, e := range spans.Snapshot() {
		if e.Stage == obs.StageDeliver && !firsts[e.Offset] {
			t.Errorf("deliver span at %d, which is not a buffer's first request", e.Offset)
		}
	}
	checked := 0
	for off, n := range reads {
		if firsts[off] {
			continue
		}
		checked++
		if n != 1 {
			t.Errorf("staged hit at %d read the clock %d times, want 1", off, n)
		}
	}
	if checked < 32 {
		t.Fatalf("only %d non-first staged hits measured", checked)
	}
}

func TestObsSpansReconstructLifecycle(t *testing.T) {
	cfg := DefaultConfig(8<<20, 1<<20)
	n, _, spans := obsNode(t, cfg)
	n.runStreams(t, 2, 16)

	events := spans.Snapshot()
	if len(events) == 0 {
		t.Fatal("no stream spans recorded")
	}
	first := events[0].Stream
	for _, e := range events {
		first = min(first, e.Stream)
	}
	var tl []obs.SpanEvent
	for _, e := range events {
		if e.Stream == first {
			tl = append(tl, e)
		}
	}
	seen := make(map[obs.Stage]bool)
	for _, e := range tl {
		seen[e.Stage] = true
	}
	for _, want := range []obs.Stage{obs.StageClassify, obs.StageEnqueue, obs.StageDispatch,
		obs.StageFetch, obs.StageStaged, obs.StageDeliver} {
		if !seen[want] {
			t.Errorf("stream %d timeline missing stage %v (stages: %v)", first, want, tl)
		}
	}
	// The first event of a stream's life is its classification.
	if tl[0].Stage != obs.StageClassify {
		t.Errorf("first span = %v, want classify", tl[0].Stage)
	}
	// Timestamps are monotone in record order.
	for i := 1; i < len(tl); i++ {
		if tl[i].At < tl[i-1].At {
			t.Fatalf("span timestamps regress at %d: %v -> %v", i, tl[i-1].At, tl[i].At)
		}
	}
}

func TestObsFlightCarriesStreamIDsAndRotation(t *testing.T) {
	cfg := DefaultConfig(4<<20, 1<<20) // D=4: rotation under stream pressure
	n, _, _ := obsNode(t, cfg)
	n.runStreams(t, 8, 16)
	// One traced read in the gap between two streams' regions: a fresh
	// region, so it takes the direct path.
	rec := n.server.cfg.Flight
	gap := n.dev.Capacity(0) / 16
	n.do(t, Request{Disk: 0, Offset: gap - gap%512, Length: 4096, Trace: rec.NextTrace()})

	var rotates, streamFetches, tracedDirects int
	for _, e := range rec.Snapshot().Merged() {
		switch e.Op {
		case flight.OpRotate:
			rotates++
		case flight.OpFetch:
			if e.Stream != flight.NoStream {
				streamFetches++
			}
		case flight.OpDirect:
			if e.Trace != 0 {
				tracedDirects++
			}
			if e.Stream != flight.NoStream {
				t.Errorf("direct event carries stream %d, want NoStream", e.Stream)
			}
		}
	}
	if rotates == 0 {
		t.Error("no rotate events recorded under stream pressure")
	}
	if streamFetches == 0 {
		t.Error("fetch events lack stream attribution")
	}
	if tracedDirects == 0 {
		t.Error("the traced direct read recorded no event")
	}
}

func TestObsGCEvents(t *testing.T) {
	cfg := DefaultConfig(8<<20, 1<<20)
	cfg.StreamTimeout = 10 * time.Millisecond
	cfg.BufferTimeout = 10 * time.Millisecond
	cfg.GCPeriod = 5 * time.Millisecond
	n, reg, spans := obsNode(t, cfg)
	n.runStreams(t, 2, 8)

	// Let the GC collect the now-idle streams.
	if err := n.eng.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	st := n.server.Stats()
	if st.StreamsGCed+st.StreamsRetired == 0 {
		t.Fatal("no streams collected or retired; GC path untested")
	}
	vars := reg.Vars()
	if got := vars["seqstream_core_gc_ticks_total"]; got == int64(0) {
		t.Error("gc ticks not counted")
	}
	if st.StreamsGCed > 0 {
		if got := vars["seqstream_core_streams_gced_total"]; got != st.StreamsGCed {
			t.Errorf("streams_gced = %v, want %d", got, st.StreamsGCed)
		}
		var sawGCSpan bool
		for _, e := range spans.Snapshot() {
			if e.Stage == obs.StageGC {
				sawGCSpan = true
			}
		}
		if !sawGCSpan {
			t.Error("no GC span recorded")
		}
		var sawGCEvent bool
		for _, e := range n.server.cfg.Flight.Snapshot().Merged() {
			if e.Op == flight.OpGC {
				sawGCEvent = true
			}
		}
		if !sawGCEvent {
			t.Error("no OpGC flight event recorded")
		}
	}
}

func TestSnapshotConsistency(t *testing.T) {
	cfg := DefaultConfig(8<<20, 1<<20)
	n := baseNode(t, cfg)
	n.runStreams(t, 4, 16)
	snap := n.server.Snapshot()
	if snap.Stats.Requests != n.server.Stats().Requests {
		t.Error("snapshot counters disagree with Stats")
	}
	if snap.ActiveStreams != int(n.server.liveStreams.Load()) {
		t.Error("snapshot gauge disagrees with the live stream count")
	}
	if snap.DispatchedStreams < 0 || snap.DispatchedStreams > cfg.DispatchSize {
		t.Errorf("dispatched = %d outside [0, D]", snap.DispatchedStreams)
	}
}
