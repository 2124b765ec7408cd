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
	"seqstream/internal/metrics"
	"seqstream/internal/netserve"
	"seqstream/internal/sim"
	"seqstream/internal/workload"
)

// TestFullSimStack runs workload -> core -> iostack with metrics and
// every request traced through the flight recorder, and cross-checks
// every layer's accounting.
func TestFullSimStack(t *testing.T) {
	eng := sim.NewEngine()
	host, err := iostack.New(eng, iostack.MediumConfig(iostack.Options{}))
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

	rec := metrics.NewRecorder()
	traced := make(map[uint64]int)
	gen, err := workload.NewGenerator(clock, func(disk int, off, length int64, done func()) error {
		id := fr.NextTrace()
		traced[id] = 0
		return node.Submit(core.Request{Disk: disk, Offset: off, Length: length, Trace: id,
			Done: func(core.Response) { done() }})
	}, rec)
	if err != nil {
		t.Fatal(err)
	}

	// 4 streams on each of the 8 disks, 64 requests each.
	const perDisk, requests = 4, 64
	const reqSize = 64 << 10
	for d := 0; d < dev.Disks(); d++ {
		specs := workload.UniformStreams(d*perDisk, d, perDisk, dev.Capacity(d), reqSize, requests)
		if err := gen.Add(specs...); err != nil {
			t.Fatal(err)
		}
	}
	finished := false
	if err := gen.Start(func() { finished = true }); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunWhile(func() bool { return !finished }); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("workload never finished")
	}

	total := int64(dev.Disks() * perDisk * requests)
	wantBytes := total * reqSize

	// Layer 1: workload metrics.
	if rec.TotalRequests() != total {
		t.Errorf("recorder requests = %d, want %d", rec.TotalRequests(), total)
	}
	if rec.TotalBytes() != wantBytes {
		t.Errorf("recorder bytes = %d, want %d", rec.TotalBytes(), wantBytes)
	}
	if rec.AggregateMBps() <= 0 {
		t.Error("no aggregate throughput")
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
// run through the public workload API rather than the experiment
// harness.
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
		gen, err := workload.NewGenerator(blockdev.NewSimClock(eng), func(disk int, off, length int64, done func()) error {
			return node.Submit(core.Request{Disk: disk, Offset: off, Length: length,
				Done: func(core.Response) { done() }})
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := gen.Add(workload.UniformStreams(0, 0, streams, dev.Capacity(0), 64<<10, 256)...); err != nil {
			t.Fatal(err)
		}
		done := false
		if err := gen.Start(func() { done = true }); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunWhile(func() bool { return !done }); err != nil {
			t.Fatal(err)
		}
		return gen.Recorder().WallThroughput() / 1e6
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
	srv, err := netserve.NewServer(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := netserve.Dial(srv.Addr())
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
	gen, err := workload.NewGenerator(blockdev.NewSimClock(eng), func(disk int, off, length int64, done func()) error {
		return node.Submit(core.Request{Disk: disk, Offset: off, Length: length,
			Done: func(core.Response) { done() }})
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	specs := workload.UniformStreams(0, 0, 6, dev.Capacity(0), 64<<10, 64)
	for i := range specs {
		specs[i].Outstanding = 4
	}
	if err := gen.Add(specs...); err != nil {
		t.Fatal(err)
	}
	finished := false
	if err := gen.Start(func() { finished = true }); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunWhile(func() bool { return !finished }); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("pipelined workload never finished")
	}
	st := node.Stats()
	if st.StreamsDetected != 6 {
		t.Errorf("StreamsDetected = %d, want 6 (pipelining must not break classification)", st.StreamsDetected)
	}
	if st.BufferHits+st.QueuedServed == 0 {
		t.Error("pipelined streams never hit staging")
	}
	if gen.Recorder().TotalRequests() != 6*64 {
		t.Errorf("TotalRequests = %d", gen.Recorder().TotalRequests())
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

	gen, err := workload.NewGenerator(blockdev.NewSimClock(eng), func(disk int, off, length int64, done func()) error {
		return node.Submit(core.Request{Disk: disk, Offset: off, Length: length,
			Done: func(core.Response) { done() }})
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Stream i on each disk owns the disjoint slice
	// [i·1MB, (i+1)·1MB) — one classifier region each, no two streams
	// merge. The last slice ends at the disk's exact capacity, so that
	// stream retires through maybeRetire; the inner streams go idle at
	// their slice end (the scheduler prefetched past it) and are
	// collected by the GC sweep — both are terminal lifecycle events.
	const slice = diskCap / perDisk
	totalStreams := 0
	for d := 0; d < dev.Disks(); d++ {
		for i := 0; i < perDisk; i++ {
			spec := workload.StreamSpec{
				ID:          d*perDisk + i,
				Disk:        d,
				Start:       int64(i) * slice,
				RequestSize: reqSize,
				Requests:    int(slice / reqSize),
			}
			if err := gen.Add(spec); err != nil {
				t.Fatal(err)
			}
			totalStreams++
		}
	}
	if totalStreams != 512 {
		t.Fatalf("streams = %d, want 512", totalStreams)
	}
	finished := false
	if err := gen.Start(func() { finished = true }); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunWhile(func() bool { return !finished }); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("workload never finished")
	}
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
