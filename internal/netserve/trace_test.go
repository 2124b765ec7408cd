package netserve

import (
	"sync/atomic"
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/core"
	"seqstream/internal/flight"
	"seqstream/internal/obs"
)

// countingClock counts its Now calls.
type countingClock struct {
	blockdev.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Duration {
	c.reads.Add(1)
	return c.Clock.Now()
}

// tracedNode is a one-disk wire node with every telemetry sink on
// clock: core, its windows and SLO ledger, the span log, the flight
// recorder, and the wire request window and SLO score.
type tracedNode struct {
	core  *core.Server
	srv   *Server
	rec   *flight.Recorder
	spans *obs.SpanLog
}

func newTracedNode(t *testing.T, clock blockdev.Clock) *tracedNode {
	t.Helper()
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
	reg := obs.NewRegistry()
	node, err := core.NewServer(dev, clock, core.Config{
		ReadAhead:  1 << 20,
		Memory:     64 << 20,
		GCPeriod:   time.Hour, // no sweep may run beside the measured requests
		EvictIdle:  time.Hour,
		Obs:        core.NewObs(reg, spans),
		WindowSpan: time.Minute,
		SLOTarget:  50 * time.Millisecond,
		Flight:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	no := NewObs(reg)
	if err := no.AttachWindow(reg, clock.Now, time.Minute); err != nil {
		t.Fatal(err)
	}
	no.AttachSLO(reg, node.SLO().Deadline)
	srv.SetObs(no)
	srv.SetFlight(rec)
	return &tracedNode{core: node, srv: srv, rec: rec, spans: spans}
}

// opCounts tallies events by op, and by op per trace id.
func opCounts(events []flight.Event) (map[flight.Op]int, map[uint64]map[flight.Op]int) {
	ops := make(map[flight.Op]int)
	byTrace := make(map[uint64]map[flight.Op]int)
	for _, e := range events {
		ops[e.Op]++
		if e.Trace != 0 {
			if byTrace[e.Trace] == nil {
				byTrace[e.Trace] = make(map[flight.Op]int)
			}
			byTrace[e.Trace][e.Op]++
		}
	}
	return ops, byTrace
}

// TestUntracedWireRequestsAreSampled pins the wire's record budget:
// 256 untraced requests on one connection give 4 of them a trace id
// (the 1st, 65th, 129th and 193rd), so exactly those record ingress,
// submit and respond, and deliver is recorded once per staged buffer
// plus for sampled hits.
func TestUntracedWireRequestsAreSampled(t *testing.T) {
	n := newTracedNode(t, blockdev.NewRealClock())
	client, err := DialOpts(n.srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const requests = 256
	if err := client.RunStreams(0, 1<<30, 1, requests, 64<<10, 0); err != nil {
		t.Fatalf("RunStreams: %v", err)
	}
	if hits := n.core.Stats().BufferHits; hits < requests/2 {
		t.Fatalf("only %d staged hits; the hit path is untested", hits)
	}

	events := n.rec.Snapshot().Merged()
	ops, byTrace := opCounts(events)
	const sampled = requests / traceSampleEvery
	for _, op := range []flight.Op{flight.OpIngress, flight.OpSubmit, flight.OpRespond} {
		if ops[op] != sampled {
			t.Errorf("%v events = %d, want %d", op, ops[op], sampled)
		}
	}
	if len(byTrace) != sampled {
		t.Errorf("%d trace ids recorded, want %d", len(byTrace), sampled)
	}
	bufferStarts := make(map[int64]bool)
	for _, e := range events {
		if e.Op == flight.OpFetch {
			bufferStarts[e.Offset] = true
		}
	}
	for _, e := range events {
		if e.Op == flight.OpDeliver && e.Trace == 0 && !bufferStarts[e.Offset] {
			t.Errorf("untraced deliver at %d, which is not a staged buffer's first request", e.Offset)
		}
	}
	if ops[flight.OpDeliver] > len(bufferStarts)+sampled {
		t.Errorf("%d deliver events for %d buffers and %d sampled requests",
			ops[flight.OpDeliver], len(bufferStarts), sampled)
	}
}

// TestClientTracedRequestsKeepFullLifecycle checks sampling leaves
// client-traced requests alone: each records ingress, submit, respond,
// and its delivery (from staged memory or a direct read).
func TestClientTracedRequestsKeepFullLifecycle(t *testing.T) {
	n := newTracedNode(t, blockdev.NewRealClock())
	client, err := DialOpts(n.srv.Addr(), ClientOptions{Tracing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const requests = 128
	if err := client.RunStreams(0, 1<<30, 1, requests, 64<<10, 0); err != nil {
		t.Fatalf("RunStreams: %v", err)
	}
	_, byTrace := opCounts(n.rec.Snapshot().Merged())
	if len(byTrace) != requests {
		t.Fatalf("%d trace ids recorded, want %d", len(byTrace), requests)
	}
	for id, ops := range byTrace {
		if ops[flight.OpIngress] != 1 || ops[flight.OpSubmit] != 1 || ops[flight.OpRespond] != 1 ||
			ops[flight.OpDeliver]+ops[flight.OpDirect] != 1 {
			t.Errorf("trace %#x recorded %v, want one each of ingress, submit, deliver or direct, respond", id, ops)
		}
	}
}

// TestUnsampledWireStagedHitReadsClockOnce pins the wire's clock
// budget. With core, its windows and SLO ledger, the span log, the
// recorder and the wire window all on one counting clock (the client
// on its own), an unsampled staged hit that is not its buffer's first
// reads the server clock exactly once, in core's Submit: the wire
// window is slotted at the response's End.
func TestUnsampledWireStagedHitReadsClockOnce(t *testing.T) {
	clock := &countingClock{Clock: blockdev.NewRealClock()}
	n := newTracedNode(t, clock)
	client, err := DialOpts(n.srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const req = 64 << 10
	ch := make(chan Response, 1)
	done := func(r Response, _ time.Duration) { ch <- r }
	reads := make(map[int64]int64) // unsampled staged hit offset → server clock reads
	for i := int64(0); i < traceSampleEvery; i++ {
		off := i * req
		hits := n.core.Stats().BufferHits
		before := clock.reads.Load()
		if err := client.Go(0, 0, off, req, 0, done); err != nil {
			t.Fatal(err)
		}
		if r := <-ch; r.Status != StatusOK {
			t.Fatalf("request at %d: status %d", off, r.Status)
		}
		got := clock.reads.Load() - before
		if i > 0 && n.core.Stats().BufferHits == hits+1 { // request 0 is sampled
			reads[off] = got
		}
	}

	firsts := make(map[int64]bool) // buffer starts: each buffer's first hit
	for _, e := range n.spans.Snapshot() {
		if e.Stage == obs.StageFetch {
			firsts[e.Offset] = true
		}
	}
	checked := 0
	for off, got := range reads {
		if firsts[off] {
			continue
		}
		checked++
		if got != 1 {
			t.Errorf("staged hit at %d read the server clock %d times, want 1", off, got)
		}
	}
	if checked < 32 {
		t.Fatalf("only %d non-first staged hits measured", checked)
	}
}
