// Command streamnode runs a storage node: the paper's host-level
// stream scheduler serving reads over TCP from an in-memory or
// file-backed device.
//
// Usage:
//
//	streamnode -listen 127.0.0.1:7070 -disks 2 -capacity 4GiB
//	streamnode -listen 127.0.0.1:7070 -files disk0.img,disk1.img
//	streamnode -debug-addr 127.0.0.1:7071   # /metrics, /debug/vars, /debug/pprof
//	streamnode -fault 'disk=0,mode=err,every=5' -fetch-retries 3   # fault drill
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"seqstream/internal/blackbox"
	"seqstream/internal/blockdev"
	"seqstream/internal/controller"
	"seqstream/internal/core"
	"seqstream/internal/flight"
	"seqstream/internal/health"
	"seqstream/internal/netserve"
	"seqstream/internal/obs"
	"seqstream/internal/units"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// node bundles the built server stack for run and for tests.
type node struct {
	srv      *netserve.Server
	core     *core.Server
	ingest   *core.Ingest
	reg      *obs.Registry
	spans    *obs.SpanLog
	flight   *flight.Recorder
	health   *health.Engine
	blackbox *blackbox.Capturer
	debug    *obs.DebugServer
	closers  []func()
}

func (n *node) Close() {
	if n.debug != nil {
		n.debug.Close()
	}
	if n.health != nil {
		n.health.Close()
	}
	n.srv.Close()
	if n.ingest != nil {
		n.ingest.Close()
	}
	n.core.Close()
	// Close the span log after core.Close so the scheduler's shutdown
	// flush has already drained; entries recorded up to the last
	// request reach the sink instead of dying with the process.
	if n.spans != nil {
		n.spans.Close()
	}
	for _, c := range n.closers {
		c()
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("streamnode", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:7070", "listen address")
		disks     = fs.Int("disks", 1, "number of in-memory disks (ignored with -files)")
		capacity  = fs.String("capacity", "4GiB", "per-disk capacity for in-memory disks")
		latency   = fs.Duration("latency", 5*time.Millisecond, "simulated per-read latency for in-memory disks")
		files     = fs.String("files", "", "comma-separated file paths to serve instead of memory disks")
		memory    = fs.String("memory", "256MiB", "staging memory (M)")
		ra        = fs.String("readahead", "1MiB", "read-ahead per disk request (R)")
		n         = fs.Int("requests-per-stream", 1, "disk requests per dispatch residency (N)")
		d         = fs.Int("dispatch", 0, "dispatch set size (D); 0 derives M/(R*N)")
		shards    = fs.Int("shards", 0, "scheduler shard count; 0 (the default) is one shard per disk")
		ingest    = fs.Bool("ingest", false, "accept FlagWrite requests through the write-once coalescer")
		chunk     = fs.String("chunk", "1MiB", "ingest chunk size (with -ingest)")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof, and /debug/flight on this address (empty disables)")
		statsIvl  = fs.Duration("stats-interval", 0, "log a one-line metric summary this often (0 disables)")

		flightEvents = fs.Int("flight-events", 0, "per-shard flight-recorder ring capacity in events, rounded up to a power of two (0 uses the default, 4096)")
		healthIvl    = fs.Duration("health-interval", time.Second, "how often the online health engine polls the flight rings (0 disables the engine)")
		healthWin    = fs.Duration("health-window", time.Minute, "sliding-window span for the latency telemetry behind /debug/health (0 disables windows and the engine)")
		spanLogPath  = fs.String("span-log", "", "append lifecycle span JSON lines to this file (flushed on shutdown)")

		sloTarget     = fs.Duration("slo-target", 0, "per-delivery deadline base for the stream SLO engine (0 disables SLO scoring)")
		sloLateFactor = fs.Float64("slo-late-factor", 0, "lateness multiple of the deadline that escalates late to missed (0 uses the default, 4)")
		sloObjective  = fs.Float64("slo-objective", 0, "on-time delivery objective the burn-rate alerts budget against, e.g. 0.999 (0 uses the default)")
		sloFastWin    = fs.Duration("slo-fast-window", 0, "fast burn-rate window (0 uses the default, 5m)")
		sloMidWin     = fs.Duration("slo-mid-window", 0, "mid burn-rate window confirming the fast one (0 uses the default, 1h)")
		sloSlowWin    = fs.Duration("slo-slow-window", 0, "slow burn-rate window (0 uses the default, 6h)")
		sloMinSamples = fs.Int64("slo-min-samples", 0, "deliveries a window needs before its burn rate can alert (0 uses the default, 32)")
		blackboxDir   = fs.String("blackbox-dir", "", "persist anomaly-triggered diagnostic bundles to this directory (empty keeps them in memory only, served at /debug/bundle)")

		fault        = fs.String("fault", "", "fault-injection script, rules separated by ';' (e.g. 'disk=0,mode=err,every=5;mode=delay,delay=50ms')")
		fetchTimeout = fs.Duration("fetch-timeout", 0, "fail a stream fetch stuck on the device this long (0 disables)")
		fetchRetries = fs.Int("fetch-retries", 0, "retries for transiently failed fetches (0 disables)")
		retryBackoff = fs.Duration("retry-backoff", 0, "initial fetch-retry backoff, doubled per attempt (0 uses the default)")
		brkThresh    = fs.Int("breaker-threshold", 0, "consecutive device failures that open a disk's circuit breaker (0 disables)")
		brkCooldown  = fs.Duration("breaker-cooldown", 0, "how long an open breaker waits before probing the disk again (0 uses the default)")
		idleTimeout  = fs.Duration("idle-timeout", 0, "close client connections idle this long (0 disables)")
		writeTimeout = fs.Duration("write-timeout", 0, "per-response write deadline to clients (0 disables)")
		payload      = fs.Bool("payload", false, "grant the v2 payload extension: clients that negotiate it get read responses carrying the staged bytes")

		replicas       = fs.Int("replicas", 0, "replication factor of the data layout: each disk's regions are also readable from replicas-1 mirror disks (0/1 disables)")
		steerFactor    = fs.Float64("steer-factor", 0, "steer a stream's fetches to a replica whose fetch EWMA is this many times faster than the primary's (0 disables; needs -replicas >= 2 and -health-window > 0)")
		specQuantile   = fs.Float64("spec-quantile", 0, "re-issue a fetch on a replica once it outlives this latency quantile of its disk's window, e.g. 0.95 (0 disables; needs -replicas >= 2 and -health-window > 0)")
		specMinSamples = fs.Int("spec-min-samples", 0, "window samples a disk needs before its fetches are eligible for speculation (0 uses the default, 8)")
		specMinDelay   = fs.Duration("spec-min-delay", 0, "floor for the speculation trigger delay (0 uses the default, 1ms)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	nd, err := build(buildParams{
		listen: *listen, disks: *disks, capacity: *capacity, latency: *latency,
		files: *files, memory: *memory, ra: *ra, n: *n, d: *d, shards: *shards,
		ingest: *ingest, chunk: *chunk, debugAddr: *debugAddr,
		flightEvents: *flightEvents, spanLogPath: *spanLogPath,
		healthInterval: *healthIvl, healthWindow: *healthWin,
		sloTarget: *sloTarget, sloLateFactor: *sloLateFactor, sloObjective: *sloObjective,
		sloFastWindow: *sloFastWin, sloMidWindow: *sloMidWin, sloSlowWindow: *sloSlowWin,
		sloMinSamples: *sloMinSamples, blackboxDir: *blackboxDir,
		fault:        *fault,
		fetchTimeout: *fetchTimeout, fetchRetries: *fetchRetries, retryBackoff: *retryBackoff,
		breakerThreshold: *brkThresh, breakerCooldown: *brkCooldown,
		idleTimeout: *idleTimeout, writeTimeout: *writeTimeout, payload: *payload,
		replicas: *replicas, steerFactor: *steerFactor, specQuantile: *specQuantile,
		specMinSamples: *specMinSamples, specMinDelay: *specMinDelay,
	})
	if err != nil {
		return err
	}
	defer nd.Close()

	cfg := nd.core.Config()
	fmt.Printf("streamnode listening on %s (D=%d R=%d N=%d M=%d ingest=%v payload=%v)\n",
		nd.srv.Addr(), cfg.DispatchSize, cfg.ReadAhead, cfg.RequestsPerStream, cfg.Memory, nd.ingest != nil, *payload)
	if nd.debug != nil {
		fmt.Printf("debug endpoints on http://%s/ (metrics, vars, pprof)\n", nd.debug.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *statsIvl > 0 {
		ticker := time.NewTicker(*statsIvl)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				fmt.Println(statsLine(nd))
			}
		}()
	}

	<-sig
	st := nd.core.Stats()
	fmt.Printf("shutting down: requests=%d streams=%d fetched=%dMB delivered=%dMB hits=%d\n",
		st.Requests, st.StreamsDetected, st.BytesFetched>>20, st.BytesDelivered>>20,
		st.BufferHits+st.QueuedServed)
	return nil
}

// statsLine formats the periodic -stats-interval summary from one
// consistent scheduler snapshot plus the wire-level counters.
func statsLine(nd *node) string {
	snap := nd.core.Snapshot()
	ns := nd.srv.Stats()
	return fmt.Sprintf(
		"stats: requests=%d hits=%d direct=%d streams=%d/%d dispatched=%d queue=%d mem=%dMiB conns=%d errors=%d",
		snap.Stats.Requests, snap.Stats.BufferHits+snap.Stats.QueuedServed,
		snap.Stats.DirectReads, snap.ActiveStreams, snap.Stats.StreamsDetected,
		snap.DispatchedStreams, snap.CandidateQueue, snap.Stats.MemoryInUse>>20,
		ns.Conns, ns.Errors)
}

// extraHandlers mounts the flight snapshot dump and, when the engine
// runs, the /debug/health rollup and /debug/bundle blackbox ring on
// the debug mux.
func extraHandlers(rec *flight.Recorder, eng *health.Engine, capt *blackbox.Capturer) map[string]http.Handler {
	m := map[string]http.Handler{
		"/debug/flight": flight.Handler(rec),
	}
	if eng != nil {
		m["/debug/health"] = health.Handler(eng)
	}
	if capt != nil {
		m["/debug/bundle"] = blackbox.Handler(capt)
	}
	return m
}

// captureTrigger adapts the blackbox capturer to health.Capturer,
// dropping the returned bundle (the engine only fires triggers; the
// ring and /debug/bundle are where bundles are read).
type captureTrigger struct{ c *blackbox.Capturer }

func (t captureTrigger) Capture(reason string) { t.c.Capture(reason) }

// buildParams carries the parsed flags.
type buildParams struct {
	listen    string
	disks     int
	capacity  string
	latency   time.Duration
	files     string
	memory    string
	ra        string
	n         int
	d         int
	shards    int
	ingest    bool
	chunk     string
	debugAddr string

	// Flight recorder and span-log sink.
	flightEvents int
	spanLogPath  string

	// Online health engine: poll period and sliding-window span.
	healthInterval time.Duration
	healthWindow   time.Duration

	// Stream SLO engine and the anomaly-triggered blackbox capturer.
	sloTarget     time.Duration
	sloLateFactor float64
	sloObjective  float64
	sloFastWindow time.Duration
	sloMidWindow  time.Duration
	sloSlowWindow time.Duration
	sloMinSamples int64
	blackboxDir   string

	// Failure handling: fault-injection script plus the fetch-timeout,
	// retry, breaker, and connection-deadline knobs.
	fault            string
	fetchTimeout     time.Duration
	fetchRetries     int
	retryBackoff     time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	idleTimeout      time.Duration
	writeTimeout     time.Duration
	payload          bool

	// Replica-aware dispatch: mirrored layout, straggler steering, and
	// speculative re-issue.
	replicas       int
	steerFactor    float64
	specQuantile   float64
	specMinSamples int
	specMinDelay   time.Duration
}

// build assembles the device, scheduler, optional ingest, the TCP
// server, and (with debugAddr) the instrumented debug listener.
func build(p buildParams) (*node, error) {
	out := &node{}
	var dev blockdev.Device
	if p.files != "" {
		// Ingest writes through to the files, so they open read-write.
		open := blockdev.OpenFileDevice
		if p.ingest {
			open = blockdev.OpenFileDeviceRW
		}
		fd, err := open(strings.Split(p.files, ","), 0)
		if err != nil {
			return nil, err
		}
		out.closers = append(out.closers, func() { fd.Close() })
		dev = fd
	} else {
		capBytes, err := units.ParseSize(p.capacity)
		if err != nil {
			return nil, err
		}
		md, err := blockdev.NewMemDevice(p.disks, capBytes, p.latency, true)
		if err != nil {
			return nil, err
		}
		dev = md
	}

	mem, err := units.ParseSize(p.memory)
	if err != nil {
		return nil, err
	}
	raBytes, err := units.ParseSize(p.ra)
	if err != nil {
		return nil, err
	}
	clock := blockdev.NewRealClock()

	if p.fault != "" {
		rules, err := blockdev.ParseFaultScript(p.fault)
		if err != nil {
			return nil, err
		}
		sdev, err := blockdev.NewScriptDevice(dev, clock, rules)
		if err != nil {
			return nil, err
		}
		dev = sdev
	}

	// One registry feeds every layer. The controller families are
	// registered too so real-device and simulated nodes expose the same
	// metric vocabulary; here they read zero (no simulated controller).
	out.reg = obs.NewRegistry()
	controller.NewObs(out.reg)
	obs.RegisterRuntimeMetrics(out.reg)
	spans, err := obs.NewSpanLog(clock.Now, 4096)
	if err != nil {
		return nil, err
	}
	out.spans = spans
	if p.spanLogPath != "" {
		f, err := os.OpenFile(p.spanLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		spans.SetSink(f)
		out.closers = append(out.closers, func() { f.Close() })
	}

	cfg := core.Config{
		DispatchSize:      p.d,
		Shards:            p.shards,
		ReadAhead:         raBytes,
		RequestsPerStream: p.n,
		Memory:            mem,
		Obs:               core.NewObs(out.reg, spans),
		FetchTimeout:      p.fetchTimeout,
		FetchRetries:      p.fetchRetries,
		RetryBackoff:      p.retryBackoff,
		BreakerThreshold:  p.breakerThreshold,
		BreakerCooldown:   p.breakerCooldown,
		WindowSpan:        p.healthWindow,
		SLOTarget:         p.sloTarget,
		SLOLateFactor:     p.sloLateFactor,
		SLOObjective:      p.sloObjective,
		SLOFastWindow:     p.sloFastWindow,
		SLOMidWindow:      p.sloMidWindow,
		SLOSlowWindow:     p.sloSlowWindow,
		SLOMinSamples:     p.sloMinSamples,
		Replicas:          p.replicas,
		SteerFactor:       p.steerFactor,
		SpecQuantile:      p.specQuantile,
		SpecMinSamples:    p.specMinSamples,
		SpecMinDelay:      p.specMinDelay,
	}
	cfg.ApplyDefaults()

	// The flight recorder is always on: one ring per scheduler shard
	// (mirroring the server's disk→shard routing), fixed memory,
	// lock-free writes. It must exist before the server so each shard
	// binds its ring at construction.
	shards := cfg.Shards
	if shards <= 0 || shards > dev.Disks() {
		shards = dev.Disks()
	}
	rec, err := flight.New(clock.Now, shards, p.flightEvents)
	if err != nil {
		return nil, err
	}
	out.flight = rec
	cfg.Flight = rec
	// Memory devices stamp device-read completions onto the same rings;
	// file-backed and fault-wrapped devices have no completion hook.
	if fd, ok := dev.(interface{ SetFlight(*flight.Recorder) }); ok {
		fd.SetFlight(rec)
	}

	coreSrv, err := core.NewServer(dev, clock, cfg)
	if err != nil {
		return nil, err
	}
	out.core = coreSrv

	srv, err := netserve.NewServerOpts(coreSrv, p.listen, netserve.ServerOptions{
		IdleTimeout:  p.idleTimeout,
		WriteTimeout: p.writeTimeout,
		Payload:      p.payload,
	})
	if err != nil {
		coreSrv.Close()
		return nil, err
	}
	nsObs := netserve.NewObs(out.reg)
	if p.healthWindow > 0 {
		if err := nsObs.AttachWindow(out.reg, clock.Now, p.healthWindow); err != nil {
			coreSrv.Close()
			srv.Close()
			return nil, err
		}
	}
	if ledger := coreSrv.SLO(); ledger != nil {
		// Score the wire too: the client-observed counters should track
		// the scheduler-side ledger; divergence localizes lost time.
		nsObs.AttachSLO(out.reg, ledger.Deadline)
	}
	srv.SetObs(nsObs)
	srv.SetFlight(rec)
	out.srv = srv

	// The health engine tails the shard rings the recorder already
	// carries; windows disabled (healthWindow 0) also disables it, since
	// the rollup's latency half would be empty.
	if p.healthInterval > 0 && p.healthWindow > 0 {
		eng, err := health.NewEngine(rec, coreSrv, clock, health.Config{
			Interval: p.healthInterval,
			Window:   p.healthWindow,
		})
		if err != nil {
			out.Close()
			return nil, err
		}
		if ledger := coreSrv.SLO(); ledger != nil {
			eng.SetSLO(ledger)
		}
		// The blackbox capturer rides the engine: every anomaly raise or
		// burn-rate trip snapshots the node's diagnostic state into a
		// bundle (in memory, and on disk with -blackbox-dir). Wall time
		// comes from the real clock — this binary has one; simulations
		// leave Wall nil.
		capt, err := blackbox.New(blackbox.Config{
			Dir:      p.blackboxDir,
			Profiles: true,
		}, clock.Now, blackbox.Sources{
			Flight:   rec,
			Spans:    spans,
			SLO:      coreSrv.SLO(),
			Health:   func() any { return eng.Report() },
			Breakers: func() any { return coreSrv.BreakerInfos() },
			Stats:    func() any { return coreSrv.Snapshot() },
			Config:   cfg,
			Wall:     func() string { return time.Now().UTC().Format(time.RFC3339Nano) },
		})
		if err != nil {
			out.Close()
			return nil, err
		}
		eng.SetCapturer(captureTrigger{capt})
		out.blackbox = capt
		eng.Start()
		out.health = eng
	}

	if p.ingest {
		chunkBytes, err := units.ParseSize(p.chunk)
		if err != nil {
			out.Close()
			return nil, err
		}
		ing, err := core.NewIngest(dev, clock, core.IngestConfig{
			ChunkSize: chunkBytes,
			Memory:    mem,
			// Share the read path's staging pool (nil on simulated
			// devices) so chunk buffers recycle instead of allocating.
			Pool: coreSrv.Pool(),
		})
		if err != nil {
			out.Close()
			return nil, err
		}
		out.ingest = ing
		srv.EnableWrites(ing)
	}

	if p.debugAddr != "" {
		handler := obs.HandlerExtra(out.reg, map[string]obs.VarFunc{
			"core":     func() any { return out.core.Snapshot() },
			"netserve": func() any { return out.srv.Stats() },
			"config":   func() any { return out.core.Config() },
			"spans":    func() any { return spans.Snapshot() },
		}, extraHandlers(rec, out.health, out.blackbox))
		dbg, err := obs.Serve(p.debugAddr, handler)
		if err != nil {
			out.Close()
			return nil, err
		}
		out.debug = dbg
	}
	return out, nil
}
