package main

// node.go is the benchmark's whole contact with the program under
// test: it is the only file of this package that imports
// seqstream/internal/... (benchdev, the benchmark's device, is the one
// other importer). Everything a refactor must keep source-compatible
// for the benchmark to build is named here; README.md lists it.

import (
	"bytes"
	"errors"
	"io"
	"time"

	"seqstream/benchmark/benchdev"
	"seqstream/internal/blackbox"
	"seqstream/internal/blockdev"
	"seqstream/internal/bufpool"
	"seqstream/internal/controller"
	"seqstream/internal/core"
	"seqstream/internal/disk"
	"seqstream/internal/flight"
	"seqstream/internal/health"
	"seqstream/internal/iostack"
	"seqstream/internal/netserve"
	"seqstream/internal/obs"
	"seqstream/internal/sim"
	"seqstream/internal/slo"
)

// The types the generators handle, by the names the rest of the
// package uses.
type (
	wireClient   = netserve.Client
	wireResponse = netserve.Response
	coreRequest  = core.Request
	coreResponse = core.Response
	coreStats    = core.Stats
)

const (
	wireStatusOK    = netserve.StatusOK
	wireFlagData    = netserve.FlagWantData
	wireRespPayload = netserve.RespPayload
)

// Fixed shape of every real-time node (ISSUE "Load shape").
const (
	nodeDisks     = 8
	nodeCapacity  = int64(4) << 40 // per disk; the device stores nothing
	nodeReadAhead = int64(1) << 20 // R
	reqSize       = int64(64) << 10
	sloTarget     = 50 * time.Millisecond
)

// nodeParams is what differs between workloads.
type nodeParams struct {
	memory  int64 // M
	payload bool  // grant the v2 payload extension
	dev     benchdev.Config
}

// node is the storage node wired as cmd/streamnode's build() wires it
// with default flags (registry, span log, always-on flight recorder,
// 1-minute windows, health engine polling every second with the
// blackbox capturer attached) plus -slo-target 50ms, over the
// benchmark's device instead of blockdev.MemDevice.
type node struct {
	core   *core.Server
	srv    *netserve.Server
	reg    *obs.Registry
	spans  *obs.SpanLog
	flight *flight.Recorder
	health *health.Engine
	dev    *benchdev.Device
	memory int64
	// now is the node's clock. The device stamps its reads with it and
	// the generator its requests, so a traced run's spans share one zero.
	now func() time.Duration
	// capture makes the blackbox capturer take a bundle, as the health
	// engine does when it raises an anomaly.
	capture func(reason string)

	cursors []*flight.Cursor
	pollBuf []flight.Event
	flightN uint64 // events the cursors delivered so far
}

func buildNode(p nodeParams) (*node, error) {
	const (
		healthInterval = time.Second
		healthWindow   = time.Minute
	)
	p.dev.Disks, p.dev.Capacity = nodeDisks, nodeCapacity
	clock := blockdev.NewRealClock()
	p.dev.Now = clock.Now
	dev, err := benchdev.New(p.dev)
	if err != nil {
		return nil, err
	}
	n := &node{dev: dev, memory: p.memory, now: clock.Now}

	n.reg = obs.NewRegistry()
	controller.NewObs(n.reg)
	obs.RegisterRuntimeMetrics(n.reg)
	if n.spans, err = obs.NewSpanLog(clock.Now, 4096); err != nil {
		return nil, err
	}
	cfg := core.Config{
		ReadAhead:         nodeReadAhead,
		RequestsPerStream: 1,
		Memory:            p.memory,
		Obs:               core.NewObs(n.reg, n.spans),
		WindowSpan:        healthWindow,
		SLOTarget:         sloTarget,
	}
	cfg.ApplyDefaults()
	if n.flight, err = flight.New(clock.Now, dev.Disks(), 0); err != nil {
		return nil, err
	}
	cfg.Flight = n.flight
	dev.SetFlight(n.flight)
	for i := 0; i < n.flight.Rings(); i++ {
		n.cursors = append(n.cursors, n.flight.Ring(i).NewCursor())
	}

	if n.core, err = core.NewServer(dev, clock, cfg); err != nil {
		return nil, err
	}
	n.srv, err = netserve.NewServerOpts(n.core, "127.0.0.1:0", netserve.ServerOptions{Payload: p.payload})
	if err != nil {
		n.core.Close()
		return nil, err
	}
	nsObs := netserve.NewObs(n.reg)
	if err := nsObs.AttachWindow(n.reg, clock.Now, healthWindow); err != nil {
		n.close()
		return nil, err
	}
	nsObs.AttachSLO(n.reg, n.core.SLO().Deadline)
	n.srv.SetObs(nsObs)
	n.srv.SetFlight(n.flight)

	eng, err := health.NewEngine(n.flight, n.core, clock, health.Config{Interval: healthInterval, Window: healthWindow})
	if err != nil {
		n.close()
		return nil, err
	}
	eng.SetSLO(n.core.SLO())
	capt, err := blackbox.New(blackbox.Config{Profiles: true}, clock.Now, blackbox.Sources{
		Flight:   n.flight,
		Spans:    n.spans,
		SLO:      n.core.SLO(),
		Health:   func() any { return eng.Report() },
		Breakers: func() any { return n.core.BreakerInfos() },
		Stats:    func() any { return n.core.Snapshot() },
		Config:   cfg,
		Wall:     func() string { return time.Now().UTC().Format(time.RFC3339Nano) },
	})
	if err != nil {
		n.close()
		return nil, err
	}
	eng.SetCapturer(captureTrigger{capt})
	n.capture = func(reason string) { capt.Capture(reason) }
	eng.Start()
	n.health = eng
	return n, nil
}

type captureTrigger struct{ c *blackbox.Capturer }

func (t captureTrigger) Capture(reason string) { t.c.Capture(reason) }

// close tears the node down in cmd/streamnode's order.
func (n *node) close() {
	if n.health != nil {
		n.health.Close()
	}
	if n.srv != nil {
		n.srv.Close()
	}
	n.core.Close()
	n.spans.Close()
}

func (n *node) dial(payload bool) (*wireClient, error) {
	c, err := netserve.DialOpts(n.srv.Addr(), netserve.ClientOptions{Payload: payload})
	if err != nil {
		return nil, err
	}
	if payload && !c.Payload() {
		c.Close()
		return nil, errors.New("payload extension not granted")
	}
	return c, nil
}

// nodeCounts is every layer's public accounting at one instant.
type nodeCounts struct {
	core          coreStats
	netRequests   int64
	netErrors     int64
	netDropped    int64
	pool          bufpool.Stats // zero on a data-less device, which has no pool
	leaked        int64         // pooled buffers checked out but not staged
	dev           benchdev.Stats
	flightEvents  uint64 // recorded on all rings since the node was built
	flightLost    uint64 // of those, lapped before the health engine read them
	sloScored     int64
	anomalies     int // anomalies the health engine raised so far
	registryNames int // metric families in the registry
}

func (n *node) counts() nodeCounts {
	ns := n.srv.Stats()
	c := nodeCounts{
		core:          n.core.Stats(),
		netRequests:   ns.Requests,
		netErrors:     ns.Errors,
		netDropped:    ns.DroppedResponses,
		dev:           n.dev.Stats(),
		registryNames: len(n.reg.Names()),
	}
	if p := n.core.Pool(); p != nil {
		c.pool = p.Stats()
		c.leaked = c.pool.CheckedOut - c.core.LiveBuffers
	}
	c.sloScored = c.core.SLOOnTime + c.core.SLOLate + c.core.SLOMissed
	var lost uint64
	for _, cur := range n.cursors {
		n.pollBuf = cur.Poll(n.pollBuf[:0])
		n.flightN += uint64(len(n.pollBuf))
		lost += cur.Lost()
	}
	c.flightEvents = n.flightN + lost
	rep := n.health.Report()
	c.flightLost = rep.EventsLost
	for _, j := range rep.Journal {
		if j.Change == "raised" {
			c.anomalies++
		}
	}
	return c
}

// gauges is one Snapshot() sample for the traced run's 10 Hz poll.
func (n *node) gauges() (dispatched, candidates int) {
	s := n.core.Snapshot()
	return s.DispatchedStreams, s.CandidateQueue
}

func (n *node) dispatchSize() int { return n.core.Config().DispatchSize }

// ---- simulation cell ----------------------------------------------

// simCell is one virtual-time run: Fig 13's configuration (8 simulated
// disks behind one controller, R = 512 KiB, D = 8, N = 128,
// M = 2·S·R, GC 250 ms, evict-idle 500 ms) with the stream scheduler,
// or the same host driven directly.
type simCell struct {
	eng      *sim.Engine
	submit   func(disk int, off, length int64, done func(error)) error
	stats    func() coreStats // zero for the direct baseline
	close    func()
	capacity int64
}

const (
	simDisks     = 8
	simReadAhead = int64(512) << 10
)

func buildSimCell(seed uint64, scheduler bool, streamsPerDisk int) (*simCell, error) {
	eng := sim.NewEngine()
	stack := iostack.Testbed8Config(iostack.Options{
		DiskConfig: func(s uint64) disk.Config { return disk.ProfileWD800JD(s + seed<<8) },
	})
	host, err := iostack.New(eng, stack)
	if err != nil {
		return nil, err
	}
	c := &simCell{
		eng:      eng,
		capacity: stack.Controllers[0].Disks[0].Geometry.Capacity,
		stats:    func() coreStats { return coreStats{} },
		close:    func() {},
	}
	if !scheduler {
		c.submit = func(disk int, off, length int64, done func(error)) error {
			return host.ReadAt(disk, off, length, func(iostack.Result) { done(nil) })
		}
		return c, nil
	}
	dev, err := blockdev.NewSimDevice(host)
	if err != nil {
		return nil, err
	}
	total := int64(streamsPerDisk * simDisks)
	srv, err := core.NewServer(dev, blockdev.NewSimClock(eng), core.Config{
		DispatchSize:      simDisks,
		ReadAhead:         simReadAhead,
		RequestsPerStream: 128,
		Memory:            total * simReadAhead * 2,
		GCPeriod:          250 * time.Millisecond,
		EvictIdle:         500 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	c.submit = func(disk int, off, length int64, done func(error)) error {
		return srv.Submit(core.Request{Disk: disk, Offset: off, Length: length,
			Done: func(r core.Response) { done(r.Err) }})
	}
	c.stats = srv.Stats
	c.close = srv.Close
	return c, nil
}

func (c *simCell) now() time.Duration             { return c.eng.Now() }
func (c *simCell) runUntil(t time.Duration) error { return c.eng.RunUntil(t) }
func (c *simCell) processed() uint64              { return c.eng.Processed() }

// ---- layer probes --------------------------------------------------

// A probe is one exported call of one layer, run in a loop by
// probes.go. newProbes builds them all; each op performs exactly one
// operation and must not fail.
type probe struct {
	name string // metric stem: <layer>.<what>, reported as _ns (and _allocs)
	op   func()
}

func newProbes() ([]probe, func(), error) {
	var out []probe
	var closers []func()
	closeAll := func() {
		for _, c := range closers {
			c()
		}
	}
	clock := blockdev.NewRealClock()

	// netserve framing against in-memory buffers.
	var wbuf bytes.Buffer
	req := netserve.Request{ID: 7, Disk: 3, Offset: 1 << 30, Length: reqSize}
	out = append(out, probe{"netserve.write_request", func() {
		wbuf.Reset()
		_ = netserve.WriteRequest(&wbuf, req) // bytes.Buffer writes cannot fail
	}})
	var reqFrame bytes.Buffer
	_ = netserve.WriteRequest(&reqFrame, req)
	rr := bytes.NewReader(reqFrame.Bytes())
	out = append(out, probe{"netserve.read_request", func() {
		rr.Seek(0, io.SeekStart)
		if _, err := netserve.ReadRequest(rr); err != nil {
			panic(err)
		}
	}})
	fw := netserve.NewResponseWriter(&wbuf, false)
	resp := netserve.Response{ID: 7, Status: netserve.StatusOK}
	out = append(out, probe{"netserve.write_response", func() {
		wbuf.Reset()
		_ = fw.WriteResponse(&resp)
	}})
	fwp := netserve.NewResponseWriter(io.Discard, true)
	presp := netserve.Response{ID: 7, Status: netserve.StatusOK, Flags: netserve.RespPayload,
		Offset: 1 << 30, Data: make([]byte, reqSize)}
	out = append(out, probe{"netserve.write_response_payload", func() {
		_ = fwp.WriteResponse(&presp)
	}})
	var respFrame bytes.Buffer
	_ = netserve.WriteResponse(&respFrame, resp)
	rp := bytes.NewReader(respFrame.Bytes())
	out = append(out, probe{"netserve.read_response", func() {
		rp.Seek(0, io.SeekStart)
		if _, err := netserve.ReadResponse(rp); err != nil {
			panic(err)
		}
	}})

	// core hit path: Submit on a staged stream of an instant data-less
	// node, wired as the benchmark's node and bare.
	hit := func(srv *core.Server) func() {
		var off int64
		submit := func(done func(core.Response)) {
			if err := srv.Submit(core.Request{Offset: off, Length: reqSize, Done: done}); err != nil {
				panic(err)
			}
			off += reqSize
		}
		// The first requests go to the device directly and complete off
		// this goroutine; once the stream is staged every request is a
		// hit delivered inside Submit.
		staged := make(chan bool, 1)
		for i := 0; i < 64; i++ {
			submit(func(r core.Response) { staged <- r.Err == nil && r.FromBuffer })
			if <-staged {
				break
			}
		}
		hit := false
		inline := func(r core.Response) { hit = r.Err == nil && r.FromBuffer }
		return func() {
			hit = false
			if submit(inline); !hit {
				panic("hit-path probe: request was not a staged hit delivered inside Submit")
			}
		}
	}
	wired, err := buildNode(nodeParams{memory: 64 << 20})
	if err != nil {
		return nil, nil, err
	}
	closers = append(closers, wired.close)
	bdev, err := benchdev.New(benchdev.Config{Disks: nodeDisks, Capacity: nodeCapacity})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	bare, err := core.NewServer(bdev, clock, core.Config{ReadAhead: nodeReadAhead, RequestsPerStream: 1, Memory: 64 << 20})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	closers = append(closers, bare.Close)
	out = append(out, probe{"core.hit_path", hit(wired.core)}, probe{"core.hit_path_bare", hit(bare)})

	pool := bufpool.New()
	out = append(out, probe{"bufpool.get_release", func() { pool.Get(nodeReadAhead).Release() }})

	rec, err := flight.New(clock.Now, 1, 0)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	ring := rec.Ring(0)
	out = append(out, probe{"flight.record", func() {
		ring.Record(flight.Event{Op: flight.OpDeliver, Disk: 1, Stream: 5, Offset: 1 << 20, Length: reqSize, T: 1, Dur: 1})
	}})

	ledger, err := slo.NewLedger(slo.Config{Target: sloTarget, ReadAhead: nodeReadAhead}, clock.Now, nodeDisks)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	sl := ledger.Admit(1, 0, 0)
	out = append(out, probe{"slo.score", func() { ledger.Score(sl, 0, reqSize, time.Microsecond, true) }})

	win, err := obs.NewWindowedHistogram(clock.Now, time.Minute, 0)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	out = append(out, probe{"obs.window_observe", func() { win.Observe(time.Microsecond) }})
	hist := obs.NewRegistry().Histogram("probe_seconds", "probe")
	out = append(out, probe{"obs.histogram_observe", func() { hist.Observe(time.Microsecond) }})
	spans, err := obs.NewSpanLog(clock.Now, 4096)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	out = append(out, probe{"obs.spanlog_record", func() { spans.Record(1, 0, obs.StageDeliver, 1<<20, reqSize) }})
	return out, closeAll, nil
}
