package integration

import (
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/core"
	"seqstream/internal/disk"
	"seqstream/internal/flight"
	"seqstream/internal/geom"
	"seqstream/internal/health"
	"seqstream/internal/iostack"
	"seqstream/internal/netserve"
	"seqstream/internal/sim"
)

// seqStream is one sequential reader: requests reads of reqSize bytes
// from start on disk, with outstanding reads in flight (the paper's
// synchronous clients have one).
type seqStream struct {
	disk        int
	start       int64
	requests    int
	outstanding int
}

// uniformStreams places n synchronous streams capacity/n apart on disk,
// aligned to 512 bytes: the paper's §5 placement.
func uniformStreams(disk, n int, capacity int64, requests int) []seqStream {
	spacing := capacity / int64(n)
	spacing -= spacing % 512
	streams := make([]seqStream, n)
	for i := range streams {
		streams[i] = seqStream{disk: disk, start: int64(i) * spacing, requests: requests, outstanding: 1}
	}
	return streams
}

// runStreams drives streams closed-loop through submit on eng, issuing
// each stream's next read as one completes, until every read has
// completed. submit receives a request with its target and Done set and
// may add a trace id. It returns the bytes delivered and the simulated
// time from the first issue to the last completion.
func runStreams(t *testing.T, eng *sim.Engine, streams []seqStream, reqSize int64,
	submit func(core.Request) error) (bytes int64, took time.Duration) {
	t.Helper()
	start := eng.Now()
	pending := 0
	for i := range streams {
		s := streams[i]
		pending += s.requests
		next := s.start
		issued := 0
		var issue func()
		issue = func() {
			off := next
			next += reqSize
			issued++
			err := submit(core.Request{Disk: s.disk, Offset: off, Length: reqSize, Done: func(r core.Response) {
				if r.Err != nil {
					t.Errorf("disk %d offset %d: %v", s.disk, off, r.Err)
				}
				bytes += reqSize
				pending--
				if issued < s.requests {
					issue()
				}
			}})
			if err != nil {
				t.Fatalf("submit disk %d offset %d: %v", s.disk, off, err)
			}
		}
		for k := 0; k < s.outstanding && issued < s.requests; k++ {
			issue()
		}
	}
	if err := eng.RunWhile(func() bool { return pending > 0 }); err != nil {
		t.Fatal(err)
	}
	if pending != 0 {
		t.Fatalf("%d reads never completed", pending)
	}
	return bytes, eng.Now() - start
}

// TestFullSimStack runs closed-loop streams -> core -> iostack with
// every request traced through the flight recorder, and cross-checks
// every layer's accounting.
func TestFullSimStack(t *testing.T) {
	eng := sim.NewEngine()
	host, err := iostack.New(eng, iostack.Testbed8Config(iostack.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := blockdev.NewSimDevice(host)
	if err != nil {
		t.Fatal(err)
	}
	clock := blockdev.NewSimClock(eng)
	// One ring per shard, each large enough that the cursors below can
	// prove no event was overwritten.
	fr, err := flight.New(clock.Now, dev.Disks(), 1<<13)
	if err != nil {
		t.Fatal(err)
	}
	cursors := make([]*flight.Cursor, fr.Rings())
	for i := range cursors {
		cursors[i] = fr.Ring(i).NewCursor()
	}
	cfg := core.DefaultConfig(256<<20, 1<<20)
	cfg.Flight = fr
	node, err := core.NewServer(dev, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// 4 streams on each of the 8 disks, 64 requests each.
	const perDisk, requests = 4, 64
	const reqSize = 64 << 10
	var streams []seqStream
	for d := 0; d < dev.Disks(); d++ {
		streams = append(streams, uniformStreams(d, perDisk, dev.Capacity(d), requests)...)
	}
	traced := make(map[uint64]int)
	bytes, took := runStreams(t, eng, streams, reqSize, func(r core.Request) error {
		r.Trace = fr.NextTrace()
		traced[r.Trace] = 0
		return node.Submit(r)
	})

	total := int64(dev.Disks() * perDisk * requests)
	wantBytes := total * reqSize

	// Layer 1: the client side delivered every byte in positive time.
	if bytes != wantBytes {
		t.Errorf("client bytes = %d, want %d", bytes, wantBytes)
	}
	if took <= 0 {
		t.Errorf("run took %v of simulated time", took)
	}

	// Drain in-flight prefetches and GC before cross-checking the
	// fetch-level layers.
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	// Layer 2: core scheduler stats.
	st := node.Stats()
	if st.Requests != total {
		t.Errorf("core requests = %d, want %d", st.Requests, total)
	}
	if st.BytesDelivered != wantBytes {
		t.Errorf("core delivered = %d, want %d", st.BytesDelivered, wantBytes)
	}
	if st.StreamsDetected != int64(dev.Disks()*perDisk) {
		t.Errorf("streams detected = %d, want %d", st.StreamsDetected, dev.Disks()*perDisk)
	}
	if st.BufferHits+st.QueuedServed == 0 {
		t.Error("nothing served from staged buffers")
	}

	// Layer 3: the flight recorder agrees with stats.
	var events []flight.Event
	for _, c := range cursors {
		events = c.Poll(events)
		if c.Lost() != 0 {
			t.Fatalf("flight ring lost %d events; the recorder is undersized", c.Lost())
		}
	}
	var fetches, directs int64
	for _, e := range events {
		switch e.Op {
		case flight.OpFetch:
			fetches++
		case flight.OpDirect:
			directs++
		}
		if e.Trace != 0 && (e.Op == flight.OpDirect || e.Op == flight.OpDeliver) {
			if _, ok := traced[e.Trace]; !ok {
				t.Fatalf("completion for unknown trace id %d", e.Trace)
			}
			traced[e.Trace]++
		}
	}
	if int64(len(traced)) != total {
		t.Errorf("traced requests = %d, want %d", len(traced), total)
	}
	for id, n := range traced {
		if n != 1 {
			t.Errorf("trace id %d completed %d times, want 1", id, n)
		}
	}
	if fetches != st.Fetches {
		t.Errorf("fetch events = %d, stats %d", fetches, st.Fetches)
	}
	if directs != st.DirectReads {
		t.Errorf("direct events = %d, stats %d", directs, st.DirectReads)
	}

	// Layer 4: simulated drives actually moved the bytes.
	var media int64
	for d := 0; d < host.NumDisks(); d++ {
		media += host.Disk(d).Stats().BytesMedia
	}
	if media < wantBytes/2 {
		t.Errorf("media bytes = %d, implausibly low vs %d delivered", media, wantBytes)
	}

	// Quiescence after full drain.
	if st := node.Stats(); st.MemoryInUse != 0 || st.LiveBuffers != 0 {
		t.Errorf("staging not drained: %+v", st)
	}
}

// TestSchedulerInsensitivityEndToEnd is the paper's headline assertion
// run through core's public API rather than the experiment harness.
func TestSchedulerInsensitivityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	run := func(streams int) float64 {
		eng := sim.NewEngine()
		host, err := iostack.New(eng, iostack.BaseConfig(iostack.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		dev, err := blockdev.NewSimDevice(host)
		if err != nil {
			t.Fatal(err)
		}
		node, err := core.NewServer(dev, blockdev.NewSimClock(eng),
			core.DefaultConfig(int64(streams)*8<<20, 8<<20))
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		bytes, took := runStreams(t, eng, uniformStreams(0, streams, dev.Capacity(0), 256), 64<<10, node.Submit)
		return float64(bytes) / took.Seconds() / 1e6
	}
	ten := run(10)
	hundred := run(100)
	if hundred < ten/2 {
		t.Errorf("insensitivity broken: 10 streams %.1f MB/s vs 100 streams %.1f MB/s", ten, hundred)
	}
}

// TestNetworkedNodeEndToEnd drives the TCP protocol against a node over
// a memory device and checks the client-side metrics.
func TestNetworkedNodeEndToEnd(t *testing.T) {
	dev, err := blockdev.NewMemDevice(1, 1<<30, 500*time.Microsecond, false)
	if err != nil {
		t.Fatal(err)
	}
	node, err := core.NewServer(dev, blockdev.NewRealClock(), core.DefaultConfig(64<<20, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv, err := netserve.NewServerOpts(node, "127.0.0.1:0", netserve.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := netserve.DialOpts(srv.Addr(), netserve.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RunStreams(0, 1<<30, 8, 64, 64<<10, 0); err != nil {
		t.Fatal(err)
	}
	rec := client.Recorder()
	if rec.TotalRequests() != 8*64 {
		t.Errorf("client requests = %d", rec.TotalRequests())
	}
	lat := rec.MergedLatency()
	if lat.Mean() <= 0 {
		t.Error("no latency recorded")
	}
	nodeStats := node.Stats()
	if nodeStats.StreamsDetected == 0 {
		t.Error("no streams detected over TCP")
	}
	if nodeStats.BufferHits+nodeStats.QueuedServed == 0 {
		t.Error("no staged service over TCP")
	}
}

// TestPipelinedClientsThroughScheduler drives streams with more than
// one outstanding request through the scheduler: pipelined in-order
// requests must still be classified and served from staging.
func TestPipelinedClientsThroughScheduler(t *testing.T) {
	eng := sim.NewEngine()
	host, err := iostack.New(eng, iostack.BaseConfig(iostack.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := blockdev.NewSimDevice(host)
	if err != nil {
		t.Fatal(err)
	}
	node, err := core.NewServer(dev, blockdev.NewSimClock(eng), core.DefaultConfig(128<<20, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	streams := uniformStreams(0, 6, dev.Capacity(0), 64)
	for i := range streams {
		streams[i].outstanding = 4
	}
	bytes, _ := runStreams(t, eng, streams, 64<<10, node.Submit)
	st := node.Stats()
	if st.StreamsDetected != 6 {
		t.Errorf("StreamsDetected = %d, want 6 (pipelining must not break classification)", st.StreamsDetected)
	}
	if st.BufferHits+st.QueuedServed == 0 {
		t.Error("pipelined streams never hit staging")
	}
	if bytes != 6*64*64<<10 {
		t.Errorf("delivered %d bytes, want %d", bytes, 6*64*64<<10)
	}
}

// TestFlightLifecycleAcceptance is the tracing tentpole's acceptance
// run: 64 simulated disks, 512 sequential streams, every stream read
// to the exact end of its disk so the scheduler retires it naturally.
// The flight recorder (one ring per scheduler shard, clocked by the
// simulation) must hold a complete
// classify→enqueue→dispatch→fetch→staged→deliver→retire lifecycle for
// every single stream, and the anomaly detectors must come back clean
// on a healthy run.
func TestFlightLifecycleAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("large simulation")
	}
	const (
		diskCap   = 8 << 20 // shrunk drives: streams must reach the exact end
		reqSize   = 64 << 10
		perDisk   = 8 // 64 disks × 8 = 512 streams
		shards    = 8
		ringSlots = 8192
	)
	eng := sim.NewEngine()
	host, err := iostack.New(eng, iostack.LargeConfig(iostack.Options{
		DiskConfig: func(seed uint64) disk.Config {
			cfg := disk.ProfileWD800JD(seed)
			g := geom.WD800JD()
			g.Capacity = diskCap
			g.Cylinders = 512
			cfg.Geometry = g
			return cfg
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := blockdev.NewSimDevice(host)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Disks() != 64 {
		t.Fatalf("disks = %d, want 64", dev.Disks())
	}
	clock := blockdev.NewSimClock(eng)
	rec, err := flight.New(clock.Now, shards, ringSlots)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(1<<30, 1<<20)
	cfg.Shards = shards
	cfg.Flight = rec
	// One classifier region per stream slice: the default 4 MB regions
	// would cap the shrunken 8 MB disks at two stream promotions each.
	cfg.RegionBlocks = 16 // 16 × 64 KB blocks = the 1 MB stream slice
	// Collect finished streams quickly so the post-workload drain stays
	// short in simulated time.
	cfg.BufferTimeout = 2 * time.Second
	cfg.StreamTimeout = 4 * time.Second
	node, err := core.NewServer(dev, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	dev.SetFlight(rec)

	// Stream i on each disk owns the disjoint slice
	// [i·1MB, (i+1)·1MB) — one classifier region each, no two streams
	// merge. The last slice ends at the disk's exact capacity, so that
	// stream retires through maybeRetire; the inner streams go idle at
	// their slice end (the scheduler prefetched past it) and are
	// collected by the GC sweep — both are terminal lifecycle events.
	const slice = diskCap / perDisk
	var streams []seqStream
	for d := 0; d < dev.Disks(); d++ {
		for i := 0; i < perDisk; i++ {
			streams = append(streams, seqStream{disk: d, start: int64(i) * slice, requests: int(slice / reqSize), outstanding: 1})
		}
	}
	if len(streams) != 512 {
		t.Fatalf("streams = %d, want 512", len(streams))
	}
	runStreams(t, eng, streams, reqSize, node.Submit)
	// Drain trailing prefetch completions so final deliver/retire events
	// land before the snapshot.
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	st := node.Stats()
	if st.StreamsDetected != 512 {
		t.Fatalf("StreamsDetected = %d, want 512", st.StreamsDetected)
	}
	if st.StreamsRetired+st.StreamsGCed != 512 {
		t.Fatalf("retired %d + gced %d != 512: streams leaked", st.StreamsRetired, st.StreamsGCed)
	}
	if st.StreamsRetired < int64(dev.Disks()) {
		t.Errorf("StreamsRetired = %d, want >= %d (the capacity-reaching stream on each disk)",
			st.StreamsRetired, dev.Disks())
	}

	tl := flight.Analyze(rec.Snapshot().Merged())
	if got := len(tl.Streams); got != 512 {
		t.Fatalf("flight timeline has %d streams, want 512", got)
	}
	incomplete := 0
	for _, id := range tl.StreamIDs() {
		l := tl.Streams[id]
		if !l.Complete() {
			incomplete++
			if incomplete <= 5 {
				t.Errorf("stream %d (disk %d): incomplete lifecycle, missing %v over %d events",
					id, l.Disk, l.Missing(), len(l.Events))
			}
		}
	}
	if incomplete > 0 {
		t.Fatalf("%d/512 streams lack a complete lifecycle", incomplete)
	}
	// A healthy, fair run must not trip the anomaly detectors.
	if anoms := health.Detect(tl.Events, health.DetectorConfig{}); len(anoms) != 0 {
		for _, a := range anoms {
			t.Errorf("unexpected anomaly: %s: %s", a.Kind, a.Detail)
		}
	}
	// Device-level events rode along on the same rings.
	devReads := 0
	for _, e := range tl.Events {
		if e.Op == flight.OpDevRead {
			devReads++
		}
	}
	if devReads == 0 {
		t.Error("no device-read events recorded via SimDevice.SetFlight")
	}
}
