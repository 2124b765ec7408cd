package core

import (
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/iostack"
	"seqstream/internal/sim"
)

type testNode struct {
	eng    *sim.Engine
	host   *iostack.Host
	dev    *blockdev.SimDevice
	clock  blockdev.Clock
	server *Server
	// probe sits between server and dev on nodes built by newNode.
	probe *liveBufferProbe
}

// liveBufferProbe passes a SimDevice through and remembers the last
// live-buffer count the server forwarded to it.
type liveBufferProbe struct {
	*blockdev.SimDevice
	live int
}

func (p *liveBufferProbe) SetLiveBuffers(n int) {
	p.live = n
	p.SimDevice.SetLiveBuffers(n)
}

func newNode(t *testing.T, stackCfg iostack.Config, cfg Config) *testNode {
	t.Helper()
	eng := sim.NewEngine()
	host, err := iostack.New(eng, stackCfg)
	if err != nil {
		t.Fatalf("iostack.New: %v", err)
	}
	dev, err := blockdev.NewSimDevice(host)
	if err != nil {
		t.Fatalf("NewSimDevice: %v", err)
	}
	clock := blockdev.NewSimClock(eng)
	probe := &liveBufferProbe{SimDevice: dev}
	srv, err := NewServer(probe, clock, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(srv.Close)
	return &testNode{eng: eng, host: host, dev: dev, clock: clock, server: srv, probe: probe}
}

func baseNode(t *testing.T, cfg Config) *testNode {
	return newNode(t, iostack.BaseConfig(iostack.Options{}), cfg)
}

// await runs the engine until cond holds (or the event queue drains).
func (n *testNode) await(t *testing.T, cond func() bool) {
	t.Helper()
	if err := n.eng.RunWhile(func() bool { return !cond() }); err != nil {
		t.Fatalf("RunWhile: %v", err)
	}
	if !cond() {
		t.Fatal("event queue drained before condition held")
	}
}

// do submits one request and runs the engine until it completes.
func (n *testNode) do(t *testing.T, req Request) Response {
	t.Helper()
	var resp Response
	got := false
	userDone := req.Done
	req.Done = func(r Response) {
		resp, got = r, true
		if userDone != nil {
			userDone(r)
		}
	}
	if err := n.server.Submit(req); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	n.await(t, func() bool { return got })
	return resp
}

// runStreams drives S synchronous 64K-read streams through the server
// for `requests` reads each and returns aggregate MB/s of simulated
// delivery (bytes / time of last completion).
func (n *testNode) runStreams(t *testing.T, streams, requests int) float64 {
	t.Helper()
	capacity := n.dev.Capacity(0)
	spacing := capacity / int64(streams)
	spacing -= spacing % 512
	const req = 64 << 10
	var completed int
	var warmEnd, coolEnd, lastEnd time.Duration
	total := streams * requests
	warmup := total / 4
	cooldown := total * 3 / 4
	for s := 0; s < streams; s++ {
		base := int64(s) * spacing
		var issue func(i int)
		issue = func(i int) {
			if i >= requests {
				return
			}
			err := n.server.Submit(Request{
				Disk: 0, Offset: base + int64(i)*req, Length: req,
				Done: func(r Response) {
					if r.Err != nil {
						t.Errorf("request error: %v", r.Err)
					}
					completed++
					if completed == warmup {
						warmEnd = r.End
					}
					if completed == cooldown {
						coolEnd = r.End
					}
					if r.End > lastEnd {
						lastEnd = r.End
					}
					issue(i + 1)
				},
			})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
		issue(0)
	}
	n.await(t, func() bool { return completed >= total })
	span := coolEnd - warmEnd
	if span <= 0 {
		return 0
	}
	// Steady-state throughput: the middle half of completions over the
	// corresponding span (excludes detection warmup and tail effects).
	return float64(int64(cooldown-warmup)*req) / span.Seconds() / 1e6
}

func TestNewServerValidation(t *testing.T) {
	eng := sim.NewEngine()
	host, err := iostack.New(eng, iostack.BaseConfig(iostack.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := blockdev.NewSimDevice(host)
	if err != nil {
		t.Fatal(err)
	}
	clock := blockdev.NewSimClock(eng)
	if _, err := NewServer(nil, clock, DefaultConfig(8<<20, 1<<20)); err == nil {
		t.Error("nil device accepted")
	}
	if _, err := NewServer(dev, nil, DefaultConfig(8<<20, 1<<20)); err == nil {
		t.Error("nil clock accepted")
	}
	bad := DefaultConfig(8<<20, 1<<20)
	bad.DetectThreshold = 1
	if _, err := NewServer(dev, clock, bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	n := baseNode(t, DefaultConfig(64<<20, 1<<20))
	capacity := n.dev.Capacity(0)
	bad := []Request{
		{Disk: -1, Offset: 0, Length: 4096},
		{Disk: 1, Offset: 0, Length: 4096},
		{Disk: 0, Offset: -1, Length: 4096},
		{Disk: 0, Offset: 0, Length: 0},
		{Disk: 0, Offset: capacity, Length: 4096},
	}
	for i, req := range bad {
		if err := n.server.Submit(req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}

func TestDetectionThenStaging(t *testing.T) {
	n := baseNode(t, DefaultConfig(64<<20, 1<<20))
	const req = 64 << 10
	direct, buffered := 0, 0
	for i := 0; i < 32; i++ {
		r := n.do(t, Request{Disk: 0, Offset: int64(i) * req, Length: req})
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.Direct {
			direct++
		}
		if r.FromBuffer {
			buffered++
		}
	}
	// The first DetectThreshold requests go direct; later ones are
	// served from staged buffers.
	if direct != n.server.Config().DetectThreshold {
		t.Errorf("direct = %d, want %d (threshold)", direct, n.server.Config().DetectThreshold)
	}
	if buffered == 0 {
		t.Error("no buffered deliveries after detection")
	}
	st := n.server.Stats()
	if st.StreamsDetected != 1 {
		t.Errorf("StreamsDetected = %d, want 1", st.StreamsDetected)
	}
	if st.Fetches == 0 || st.BytesFetched == 0 {
		t.Error("no read-ahead issued")
	}
}

func TestRandomRequestsStayDirect(t *testing.T) {
	n := baseNode(t, DefaultConfig(64<<20, 1<<20))
	capacity := n.dev.Capacity(0)
	rng := sim.NewRand(3)
	for i := 0; i < 50; i++ {
		off := rng.Int63n(capacity - 1<<20)
		off -= off % 512
		r := n.do(t, Request{Disk: 0, Offset: off, Length: 4096})
		if !r.Direct {
			t.Errorf("random request %d not served directly", i)
		}
	}
	st := n.server.Stats()
	if st.StreamsDetected != 0 {
		t.Errorf("StreamsDetected = %d for random workload", st.StreamsDetected)
	}
	if st.DirectReads != 50 {
		t.Errorf("DirectReads = %d, want 50", st.DirectReads)
	}
}

func TestThroughputInsensitivity(t *testing.T) {
	// The paper's headline claim (§5, Fig 10): with adequate memory and
	// large read-ahead the node delivers near-max disk throughput
	// regardless of stream count, and is insensitive to it.
	if testing.Short() {
		t.Skip("long sweep")
	}
	run := func(streams int) float64 {
		cfg := DefaultConfig(900<<20, 8<<20)
		n := baseNode(t, cfg)
		return n.runStreams(t, streams, 384)
	}
	few := run(10)
	many := run(100)
	if many < few*0.75 {
		t.Errorf("throughput sensitive to streams: 10 -> %.1f MB/s, 100 -> %.1f MB/s", few, many)
	}
	if many < 35 {
		t.Errorf("100-stream throughput %.1f MB/s, want near disk max (>=35)", many)
	}
}

func TestSchedulerBeatsDirectPath(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	// Direct baseline: same workload straight to the device.
	direct := func(streams, requests int) float64 {
		eng := sim.NewEngine()
		host, err := iostack.New(eng, iostack.BaseConfig(iostack.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		capacity := host.DiskCapacity(0)
		spacing := capacity / int64(streams)
		spacing -= spacing % 512
		const req = 64 << 10
		var bytes int64
		for s := 0; s < streams; s++ {
			base := int64(s) * spacing
			var issue func(i int)
			issue = func(i int) {
				if i >= requests {
					return
				}
				if err := host.ReadAt(0, base+int64(i)*req, req, func(iostack.Result) {
					bytes += req
					issue(i + 1)
				}); err != nil {
					t.Fatal(err)
				}
			}
			issue(0)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(bytes) / eng.Now().Seconds() / 1e6
	}
	base := direct(50, 128)
	n := baseNode(t, DefaultConfig(900<<20, 8<<20))
	sched := n.runStreams(t, 50, 256)
	if sched < 3*base {
		t.Errorf("scheduler %.1f MB/s vs direct %.1f MB/s; want >= 3x", sched, base)
	}
}

func TestMemoryBoundRespected(t *testing.T) {
	cfg := DefaultConfig(16<<20, 8<<20) // D derives to 2
	n := baseNode(t, cfg)
	n.runStreams(t, 20, 16)
	st := n.server.Stats()
	if st.PeakMemory > 16<<20 {
		t.Errorf("PeakMemory = %d exceeds M = %d", st.PeakMemory, int64(16<<20))
	}
	if st.MemoryInUse < 0 {
		t.Errorf("MemoryInUse = %d went negative", st.MemoryInUse)
	}
}

func TestDispatchSetBounded(t *testing.T) {
	cfg := DefaultConfig(900<<20, 1<<20)
	cfg.DispatchSize = 3
	n := baseNode(t, cfg)
	maxDispatched := 0
	completed := 0
	const streams, perStream = 10, 24
	var issue func(s, i int)
	issue = func(s, i int) {
		if i >= perStream {
			return
		}
		base := int64(s) * (n.dev.Capacity(0) / streams)
		base -= base % 512
		if err := n.server.Submit(Request{
			Disk: 0, Offset: base + int64(i)*64<<10, Length: 64 << 10,
			Done: func(Response) {
				completed++
				if d := int(n.server.dispatched.Load()); d > maxDispatched {
					maxDispatched = d
				}
				issue(s, i+1)
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < streams; s++ {
		issue(s, 0)
	}
	n.await(t, func() bool { return completed >= streams*perStream })
	if maxDispatched > 3 {
		t.Errorf("dispatch set reached %d, bound is 3", maxDispatched)
	}
	if maxDispatched == 0 {
		t.Error("dispatch set never populated")
	}
}

func TestRotationAfterNRequests(t *testing.T) {
	cfg := DefaultConfig(900<<20, 512<<10)
	cfg.RequestsPerStream = 4
	cfg.DispatchSize = 1
	n := baseNode(t, cfg)
	n.runStreams(t, 2, 64)
	st := n.server.Stats()
	if st.Fetches == 0 {
		t.Fatal("no fetches")
	}
	if st.StreamsDetected != 2 {
		t.Errorf("StreamsDetected = %d", st.StreamsDetected)
	}
	if st.BufferHits+st.QueuedServed == 0 {
		t.Error("nothing served from staged buffers")
	}
}

func TestGCFreesIdleBuffers(t *testing.T) {
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.BufferTimeout = 100 * time.Millisecond
	cfg.StreamTimeout = 300 * time.Millisecond
	cfg.GCPeriod = 50 * time.Millisecond
	n := baseNode(t, cfg)
	// Detect a stream, let it prefetch, then abandon it.
	const req = 64 << 10
	for i := 0; i < 6; i++ {
		n.do(t, Request{Disk: 0, Offset: int64(i) * req, Length: req})
	}
	if n.server.Stats().Fetches == 0 {
		t.Fatal("no prefetch to abandon")
	}
	// Idle long enough for buffer and stream GC.
	if err := n.eng.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := n.server.Stats()
	if st.BuffersGCed == 0 {
		t.Error("idle buffers not garbage collected")
	}
	if st.StreamsGCed == 0 {
		t.Error("idle stream not garbage collected")
	}
	if st.MemoryInUse != 0 {
		t.Errorf("MemoryInUse = %d after GC, want 0", st.MemoryInUse)
	}
	if got := n.server.liveStreams.Load(); got != 0 {
		t.Errorf("live streams = %d after GC", got)
	}
}

func TestStreamRetiresAtDiskEnd(t *testing.T) {
	cfg := DefaultConfig(64<<20, 1<<20)
	n := baseNode(t, cfg)
	capacity := n.dev.Capacity(0)
	const req = 64 << 10
	// Read the tail of the disk sequentially to the very end.
	start := capacity - 32*req
	count := 0
	var issue func(i int)
	issue = func(i int) {
		if i >= 32 {
			return
		}
		if err := n.server.Submit(Request{
			Disk: 0, Offset: start + int64(i)*req, Length: req,
			Done: func(r Response) {
				if r.Err != nil {
					t.Errorf("tail read: %v", r.Err)
				}
				count++
				issue(i + 1)
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	issue(0)
	n.await(t, func() bool { return count >= 32 })
	// Let the tail buffers drain/retire.
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := n.server.Stats()
	if st.StreamsRetired+st.StreamsGCed == 0 {
		t.Error("tail stream neither retired nor collected")
	}
	if st.MemoryInUse != 0 {
		t.Errorf("MemoryInUse = %d after retirement", st.MemoryInUse)
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	n := baseNode(t, DefaultConfig(64<<20, 1<<20))
	n.server.Close()
	n.server.Close() // idempotent
	if err := n.server.Submit(Request{Disk: 0, Offset: 0, Length: 4096}); err == nil {
		t.Error("Submit after Close accepted")
	}
}

func TestResponsesCarryTimings(t *testing.T) {
	n := baseNode(t, DefaultConfig(64<<20, 1<<20))
	r := n.do(t, Request{Disk: 0, Offset: 0, Length: 4096})
	if r.End <= r.Start {
		t.Errorf("End %v <= Start %v", r.End, r.Start)
	}
	if !r.Direct {
		t.Error("single cold read should be direct")
	}
}

func TestLiveBufferAccountingForwarded(t *testing.T) {
	cfg := DefaultConfig(64<<20, 1<<20)
	n := baseNode(t, cfg)
	n.runStreams(t, 4, 32)
	// Drain completely (GC collects leftovers) and check the gauge
	// returns to zero.
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.probe.live != 0 {
		t.Errorf("device live buffers = %d at quiescence", n.probe.live)
	}
	if n.server.Stats().LiveBuffers != 0 {
		t.Errorf("server live buffers = %d at quiescence", n.server.Stats().LiveBuffers)
	}
}
