package main

// run.go runs one real-time workload once: set-up, warm-up, one
// measured window, the checks at quiesce, and the metrics.

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// setupRuns is how many set-ups one run times; setup_s is their median.
const setupRuns = 3

type runOpts struct {
	seed   uint64
	window time.Duration
	trace  bool
	outDir string // traced run: where trace-<workload>.jsonl goes

	setups     int // set-ups timed; 0 means setupRuns
	probeIters int // calls per probe round; 0 means defaultProbeIters
}

// outcome is what one run reports.
type outcome struct {
	attempted, failed int64
	leaked            int64    // pooled buffers neither staged nor released at the end
	problems          []string // failed checks; any makes the run incorrect
	metrics           map[string]float64
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// env is one built node with its generator, warmed up and running.
type env struct {
	spec *workload
	node *node
	gen  *generator
}

// setUp builds the node, connects the generator, starts every lane and
// returns when the warm-up is over; the lanes keep running.
func setUp(spec *workload, seed uint64, tr *tracer, maxWindow time.Duration) (*env, error) {
	p := nodeParams{memory: spec.memory, payload: spec.payload, dev: spec.dev}
	if tr != nil {
		p.dev.Observe = tr.read
	}
	n, err := buildNode(p)
	if err != nil {
		return nil, err
	}
	g, err := newGenerator(spec, n, seed, tr, maxWindow)
	if err != nil {
		n.close()
		return nil, err
	}
	g.start()
	// Whether the health engine raises an anomaly during a run, and so
	// has the blackbox capturer take its one bundle per 30 s (flight
	// snapshot, profiles: half a million allocations, 5 MB), is up to
	// the sandbox's noise. Taking that bundle here puts its cost in
	// every run's set-up and memory, and in no run's window.
	n.capture("benchmark: end of warm-up")
	return &env{spec: spec, node: n, gen: g}, nil
}

// finish stops the lanes, waits for the last responses, checks the
// run, and tears everything down.
func (e *env) finish(out *outcome) {
	e.gen.halt()
	e.verify(out)
	e.gen.close()
	e.node.close()
}

// window is everything observed over one measured window. The window
// is cut into slices of about a second, and what a burst of outside
// interference can move — rates, CPU per request, the tail — is
// reported as the median over the slices.
type window struct {
	length   time.Duration
	lat      []uint32 // every latency, ascending, ns
	slices   []slice
	kindReqs [numLaneKinds]int64
	runs     int64 // sequential runs the generator started

	user, sys      time.Duration
	mem0, mem1     runtime.MemStats
	before, after  nodeCounts
	peakRSS        float64
	queueWaits     []time.Duration
	occupancy      float64 // mean dispatched ÷ D (traced)
	candidates     float64 // mean candidate-queue length (traced)
	goroutinesPeak int
	heapPeak       uint64
}

// slice is one slice of a window. Completions are binned on the exact
// multiples of the slice length by their own stamps; cpu and mallocs
// are sampled when the measuring goroutine wakes up, a little later.
type slice struct {
	cpu      time.Duration // process user+sys
	mallocs  uint64        // heap objects allocated
	requests int
	rate     float64 // requests per second, from the completions' stamps
	tail     float64 // ns, the workload's tail percentile; 0 when the slice is too thin to carry it
}

func (w *window) requests() int64 { return int64(len(w.lat)) }

// overSlices is the median over the window's slices of f.
func (w *window) overSlices(f func(s slice) float64) float64 {
	var v []float64
	for _, s := range w.slices {
		v = append(v, f(s))
	}
	return median(v)
}

// measure opens one window of the given length on the running env.
func (e *env) measure(length time.Duration, traced bool) (*window, error) {
	g := e.gen
	w := &window{}
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	e.node.dev.ResetWaits()
	w.before = e.node.counts()
	stopSampler := func() {}
	if traced {
		stopSampler = e.sample(w)
	}
	user0, sys0 := cpuTimes()
	spec := &windowSpec{length: length, traced: traced}
	cpu, mallocs := user0+sys0, w.mem0.Mallocs // at the end of the previous slice
	err := g.window(spec, func(last bool) {
		user, sys := cpuTimes()
		runtime.ReadMemStats(&w.mem1)
		w.slices = append(w.slices, slice{cpu: user + sys - cpu, mallocs: w.mem1.Mallocs - mallocs})
		cpu, mallocs = user+sys, w.mem1.Mallocs
		if last {
			w.length = length
			w.user, w.sys = user-user0, sys-sys0
			w.after = e.node.counts()
			w.peakRSS, _ = peakRSSMB() // 0 is caught as a missing metric
		}
	})
	stopSampler()
	if err != nil {
		return nil, err
	}
	w.queueWaits = e.node.dev.QueueWaits()

	for k := range w.slices {
		var s []uint32
		for _, wk := range g.workers {
			s = append(s, wk.rec.slice(k)...)
			w.slices[k].rate += wk.rec.rate(k)
		}
		w.slices[k].requests = len(s)
		if supported(len(s), e.spec.tail) {
			slices.Sort(s)
			w.slices[k].tail = float64(quantile(s, e.spec.tail))
		}
	}
	for _, wk := range g.workers {
		w.lat = append(w.lat, wk.rec.ns...)
		w.runs += wk.runs
		for k, n := range wk.kindReqs {
			w.kindReqs[k] += n
		}
		// The sample store is the generator's, not the node's: take the
		// pages it touched back out of the high-water mark.
		w.peakRSS -= float64(len(wk.rec.ns)*4) / 1e6
	}
	slices.Sort(w.lat)
	return w, nil
}

// sample polls the scheduler gauges and the runtime at 10 Hz for the
// traced run; the returned func stops it and stores the means.
func (e *env) sample(w *window) func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var n, disp, cand float64
		for {
			select {
			case <-stop:
				if n > 0 {
					w.occupancy = disp / n / float64(e.node.dispatchSize())
					w.candidates = cand / n
				}
				return
			case <-tick.C:
				d, c := e.node.gauges()
				disp, cand, n = disp+float64(d), cand+float64(c), n+1
				if g := runtime.NumGoroutine(); g > w.goroutinesPeak {
					w.goroutinesPeak = g
				}
				metrics.Read(heap)
				if h := heap[0].Value.Uint64(); h > w.heapPeak {
					w.heapPeak = h
				}
			}
		}
	}()
	return func() { close(stop); wg.Wait() }
}

// verify checks, on a halted env, what must hold after any run: every
// request completed exactly once and successfully, the node delivered
// exactly the bytes asked for within its memory bound, no pooled
// buffer leaked, and the telemetry sinks cmd/streamnode attaches were
// on the path.
func (e *env) verify(out *outcome) {
	var issued int64
	for _, wk := range e.gen.workers {
		for _, l := range wk.lanes {
			issued += l.issued
			if l.outstanding || l.issued != l.completed {
				out.problem("lane %d: issued %d, completed %d, outstanding %v", l.id, l.issued, l.completed, l.outstanding)
			}
		}
		out.failed += wk.failed
		if wk.firstErr != nil {
			out.problem("%d requests failed, first: %v", wk.failed, wk.firstErr)
		}
		if wk.rec.dropped > 0 {
			out.problem("sample store overflowed by %d", wk.rec.dropped)
		}
	}
	out.attempted += issued
	// The server releases a payload buffer after the write the client
	// has already read, so give the last releases a moment.
	c := e.node.counts()
	for i := 0; c.leaked != 0 && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		c = e.node.counts()
	}
	out.leaked += c.leaked
	if c.core.Requests != issued {
		out.problem("core saw %d requests, generator issued %d", c.core.Requests, issued)
	}
	if want := issued * reqSize; c.core.BytesDelivered != want {
		out.problem("core delivered %d bytes, want %d", c.core.BytesDelivered, want)
	}
	if c.core.PeakMemory > e.node.memory {
		out.problem("staged memory peaked at %d, M = %d", c.core.PeakMemory, e.node.memory)
	}
	if c.leaked != 0 {
		out.problem("bufpool has %d buffers checked out, %d are staged", c.pool.CheckedOut, c.core.LiveBuffers)
	}
	if e.spec.wire && (c.netRequests != issued || c.netErrors != 0 || c.netDropped != 0) {
		out.problem("netserve: %d requests (want %d), %d errors, %d dropped", c.netRequests, issued, c.netErrors, c.netDropped)
	}
	if c.flightEvents == 0 || c.sloScored == 0 || c.registryNames == 0 {
		out.problem("node not wired like cmd/streamnode: %d flight events, %d SLO scores, %d metric families",
			c.flightEvents, c.sloScored, c.registryNames)
	}
}

func runRealtime(spec *workload, o runOpts) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	if o.trace {
		return out, runTraced(spec, o, out)
	}
	start := time.Now()
	e, err := setUp(spec, o.seed, nil, o.window)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(start).Seconds()}
	w, err := e.measure(o.window, false)
	e.finish(out)
	if err != nil {
		return nil, err
	}
	// Set-up is timed again on fresh nodes after the measurement, so
	// the window above ran in a process that had done nothing else.
	if o.setups == 0 {
		o.setups = setupRuns
	}
	for len(setups) < o.setups {
		start := time.Now()
		e, err := setUp(spec, o.seed, nil, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		e.finish(out)
	}
	endToEndMetrics(out.metrics, spec, w, median(setups))
	return out, nil
}

// runTraced is the traced run: the workload once more with the span
// recorder on, an untraced window on either side for the tracing
// overhead, then the layer probes.
func runTraced(spec *workload, o runOpts, out *outcome) error {
	tr := newTracer()
	e, err := setUp(spec, o.seed, tr, o.window)
	if err != nil {
		return err
	}
	refLen := o.window / 8
	if refLen < 200*time.Millisecond {
		refLen = 200 * time.Millisecond
	}
	var before, w, after *window
	if before, err = e.measure(refLen, false); err == nil {
		if w, err = e.measure(o.window, true); err == nil {
			after, err = e.measure(refLen, false)
		}
	}
	e.finish(out)
	if err != nil {
		return err
	}
	refRate := float64(before.requests()+after.requests()) / (before.length + after.length).Seconds()
	layerMetrics(out.metrics, spec, w, tr)
	out.metrics["load.trace_overhead_frac"] = 1 - float64(w.requests())/w.length.Seconds()/refRate
	out.metrics["load.error_frac"] = float64(out.failed) / float64(out.attempted)
	out.metrics["bufpool.checked_out_end"] = float64(out.leaked)
	if err := probeMetrics(out.metrics, o.probeIters); err != nil {
		return err
	}
	n, err := tr.write(filepath.Join(o.outDir, "trace-"+spec.name+".jsonl"))
	if err != nil {
		return err
	}
	if n == 0 {
		out.problem("traced run recorded no span")
	}
	return nil
}

func endToEndMetrics(m map[string]float64, spec *workload, w *window, setup float64) {
	rate := w.overSlices(func(s slice) float64 { return s.rate })
	m["req_per_s"] = rate
	m["mb_per_s"] = rate * float64(reqSize) / 1e6
	m["lat_tail_us"] = tailLatency(spec, w) / 1e3
	m["allocs_per_req"] = w.overSlices(func(s slice) float64 { return ratio(float64(s.mallocs), float64(s.requests)) })
	m["peak_rss_mb"] = w.peakRSS
	m["setup_s"] = setup
}

// tailLatency is the workload's tail percentile as the median of the
// slices' own, or of the whole window when the slices are too thin to
// carry it.
func tailLatency(spec *workload, w *window) float64 {
	if tail := w.overSlices(func(s slice) float64 { return s.tail }); tail > 0 {
		return tail
	}
	return float64(quantile(w.lat, tailPercentile(len(w.lat), spec.tail)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func layerMetrics(m map[string]float64, spec *workload, w *window, tr *tracer) {
	req := float64(w.requests())
	secs := w.length.Seconds()
	b, a := w.before, w.after
	d := func(after, before int64) float64 { return float64(after - before) }

	if spec.wire {
		m["netserve.client_go_ns"] = tr.meanCallNs()
		m["netserve.sys_us_per_req"] = float64(w.sys.Microseconds()) / req
		m["netserve.user_us_per_req"] = float64(w.user.Microseconds()) / req
	} else {
		m["core.submit_ns"] = tr.meanCallNs()
	}
	m["netserve.server_requests"] = d(a.netRequests, b.netRequests)
	m["netserve.server_errors"] = d(a.netErrors, b.netErrors)
	m["netserve.dropped_responses"] = d(a.netDropped, b.netDropped)

	coreRows(m, a.core, b.core, float64(w.runs), spec.memory)
	m["core.dispatch_occupancy"] = w.occupancy
	m["core.candidate_queue_mean"] = w.candidates
	scored := d(a.sloScored, b.sloScored)
	m["core.slo_on_time_frac"] = ratio(d(a.core.SLOOnTime, b.core.SLOOnTime), scored)
	m["slo.scored"] = scored

	gets := d(a.pool.Gets, b.pool.Gets)
	m["bufpool.gets"] = gets
	m["bufpool.miss_frac"] = ratio(d(a.pool.Misses, b.pool.Misses), gets)
	m["bufpool.peak_out_mb"] = float64(a.pool.PeakBytesOut) / 1e6

	reads := d(a.dev.Reads, b.dev.Reads)
	readBytes := d(a.dev.Bytes, b.dev.Bytes)
	m["blockdev.reads"] = reads
	m["blockdev.read_mb"] = readBytes / 1e6
	m["blockdev.mean_read_kb"] = ratio(readBytes/1e3, reads)
	m["blockdev.seek_frac"] = ratio(d(a.dev.Seeks, b.dev.Seeks), reads)
	m["blockdev.busy_frac"] = (a.dev.Busy - b.dev.Busy).Seconds() / (secs * nodeDisks)
	m["blockdev.queue_wait_p99_ms"] = float64(quantile(w.queueWaits, tailPercentile(len(w.queueWaits), 0.9, 0.99))) / 1e6
	m["blockdev.fill_ns_per_mb"] = ratio(float64(a.dev.FillTime-b.dev.FillTime), d(a.dev.FillBytes, b.dev.FillBytes)/1e6)

	m["flight.events"] = float64(a.flightEvents - b.flightEvents)
	m["flight.lost"] = float64(a.flightLost - b.flightLost)
	m["health.anomalies_raised"] = float64(a.anomalies)

	runtimeMetrics(m, w, req)

	m["load.requests"] = req
	latencyRows(m, w.lat)
	m["load.long_req_frac"] = float64(w.kindReqs[laneLong]) / req
	m["load.short_req_frac"] = float64(w.kindReqs[laneShort]) / req
	m["load.random_req_frac"] = float64(w.kindReqs[laneRandom]) / req
	m["load.window_s"] = secs
}

// coreRows fills the core.* rows that come from Stats(): a's counters
// less b's (zero for a node measured from its start), against the
// sequential runs the generator started and the node's M.
func coreRows(m map[string]float64, a, b coreStats, runs float64, memory int64) {
	d := func(after, before int64) float64 { return float64(after - before) }
	req := d(a.Requests, b.Requests)
	served := d(a.BufferHits, b.BufferHits) + d(a.QueuedServed, b.QueuedServed)
	m["core.hit_frac"] = ratio(d(a.BufferHits, b.BufferHits), req)
	m["core.queued_frac"] = ratio(d(a.QueuedServed, b.QueuedServed), req)
	m["core.direct_frac"] = ratio(d(a.DirectReads, b.DirectReads), req)
	m["core.reqs_per_fetch"] = ratio(req, d(a.Fetches, b.Fetches))
	m["core.prefetch_useful_frac"] = ratio(served*float64(reqSize), d(a.BytesFetched, b.BytesFetched))
	detected := d(a.StreamsDetected, b.StreamsDetected)
	m["core.streams_detected"] = detected
	m["core.false_stream_frac"] = ratio(math.Max(0, detected-runs), detected)
	m["core.buffers_evicted"] = d(a.BuffersEvicted, b.BuffersEvicted)
	m["core.buffers_gced"] = d(a.BuffersGCed, b.BuffersGCed)
	m["core.regions_gced"] = d(a.RegionsGCed, b.RegionsGCed)
	m["core.mem_peak_frac"] = ratio(float64(a.PeakMemory), float64(memory))
}

// latencyRows fills the load.lat_* rows from ascending latencies in ns.
// A percentile too few samples carry falls back to the next lower one.
func latencyRows[T ~uint32 | ~int64](m map[string]float64, lat []T) {
	at := func(candidates ...float64) float64 {
		return float64(quantile(lat, tailPercentile(len(lat), candidates...))) / 1e3
	}
	m["load.samples"] = float64(len(lat))
	m["load.lat_p50_us"] = at()
	m["load.lat_p90_us"] = at(0.9)
	m["load.lat_p99_us"] = at(0.9, 0.99)
	m["load.lat_p999_us"] = at(0.9, 0.99, 0.999)
	m["load.lat_max_us"] = float64(lat[len(lat)-1]) / 1e3
}

func runtimeMetrics(m map[string]float64, w *window, req float64) {
	m["runtime.cpu_us_per_req"] = w.overSlices(func(s slice) float64 {
		return ratio(float64(s.cpu.Nanoseconds())/1e3, float64(s.requests))
	})
	m["runtime.gc_cycles"] = float64(w.mem1.NumGC - w.mem0.NumGC)
	m["runtime.gc_pause_total_ms"] = float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6
	m["runtime.heap_peak_mb"] = float64(w.heapPeak) / 1e6
	m["runtime.bytes_per_req"] = float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / req
	m["runtime.goroutines_peak"] = float64(w.goroutinesPeak)
}
