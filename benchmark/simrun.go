package main

// simrun.go is the sim_streams workload: the paper's Fig 13 point in
// virtual time, at 10, 30, 60 and 100 streams per disk with the stream
// scheduler and at 10 and 100 with requests sent straight to the
// simulated host. The same closed loop as the real-time generator —
// one outstanding 64 KiB request per stream — runs on the simulation
// engine, so a run is a deterministic function of its seed.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"
)

const (
	simWarmup = 8 * time.Second // virtual
	// simPerWall is the virtual measure time bought per wall second
	// of -seconds: 8 s measures 60 virtual seconds in every cell.
	simPerWall = 7.5
	// simPasses is how often the cells are run.
	simPasses = 3
)

type simCellSpec struct {
	scheduler      bool
	streamsPerDisk int
}

var simCells = []simCellSpec{
	{true, 10}, {true, 30}, {true, 60}, {true, 100},
	{false, 10}, {false, 100},
}

// simTop is the cell the end-to-end numbers come from.
var simTop = simCellSpec{true, 100}

// simResult is one cell's measured phase.
type simResult struct {
	mbps      float64
	measured  int64   // requests completed in the measured phase
	latHash   uint64  // of their latencies, in completion order
	lat       []int64 // virtual ns, ascending; kept for simTop only
	issued    int64
	completed int64
	failed    int64
	events    uint64
	stats     coreStats
	setupWall time.Duration // build + virtual warm-up
	virtual   time.Duration // measured phase
	runWall   time.Duration // measured phase, and what it cost:
	cpu       time.Duration
	mallocs   uint64
	allocated uint64
}

func runSimCell(spec simCellSpec, seed uint64, measure time.Duration) (*simResult, error) {
	start := time.Now()
	cell, err := buildSimCell(seed, spec.scheduler, spec.streamsPerDisk)
	if err != nil {
		return nil, err
	}
	defer cell.close()
	res := &simResult{virtual: measure}

	// Streams sit capacity/streamsPerDisk apart (the paper's
	// placement), each moved a seeded distance into its gap.
	spacing := cell.capacity / int64(spec.streamsPerDisk)
	spacing -= spacing % reqSize
	rng := lane{rng: seed*0x9e3779b97f4a7c15 + uint64(spec.streamsPerDisk)}
	type stream struct {
		disk        int
		next        int64
		outstanding bool
	}
	var streams []*stream
	for d := 0; d < simDisks; d++ {
		for s := 0; s < spec.streamsPerDisk; s++ {
			jitter := int64(rng.rand()%uint64(spacing/2/reqSize)) * reqSize
			streams = append(streams, &stream{disk: d, next: int64(s)*spacing + jitter})
		}
	}

	end := simWarmup + measure
	var bytes int64
	stopped := false
	var issue func(st *stream)
	issue = func(st *stream) {
		if stopped {
			return
		}
		off := st.next
		st.next += reqSize
		t0 := cell.now()
		st.outstanding = true
		res.issued++
		err := cell.submit(st.disk, off, reqSize, func(err error) {
			if !st.outstanding {
				res.failed++ // completed twice
				return
			}
			st.outstanding = false
			res.completed++
			if err != nil {
				res.failed++
			}
			if t1 := cell.now(); t1 >= simWarmup && t1 <= end {
				bytes += reqSize
				res.measured++
				res.latHash = res.latHash*1099511628211 ^ uint64(t1-t0)
				if spec == simTop {
					// Only this cell's percentiles are reported; keeping
					// millions of latencies for the others would make
					// peak_rss_mb the harness's memory, not the program's.
					res.lat = append(res.lat, int64(t1-t0))
				}
			}
			issue(st)
		})
		if err != nil {
			st.outstanding = false
			res.failed++
		}
	}
	for _, st := range streams {
		issue(st)
	}
	if err := cell.runUntil(simWarmup); err != nil {
		return nil, err
	}
	res.setupWall = time.Since(start)
	events0 := cell.processed()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	user0, sys0 := cpuTimes()
	start = time.Now()
	if err := cell.runUntil(end); err != nil {
		return nil, err
	}
	res.runWall = time.Since(start)
	user1, sys1 := cpuTimes()
	runtime.ReadMemStats(&ms1)
	res.cpu = user1 - user0 + sys1 - sys0
	res.mallocs, res.allocated = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	stopped = true
	res.events = cell.processed() - events0
	res.stats = cell.stats()
	res.mbps = float64(bytes) / measure.Seconds() / 1e6
	slices.Sort(res.lat)
	return res, nil
}

func runSim(spec *workload, o runOpts) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	measure := time.Duration(float64(o.window) * simPerWall)

	// The cells run simPasses times over. Virtual results come from the
	// first pass, and every later pass must repeat them bit for bit: the
	// same seed gives the same run. Wall time (per-layer rows only; see
	// README "Steadiness") is each cell's fastest run: the work is the
	// same each time, so the fastest is the least disturbed.
	results := map[simCellSpec]*simResult{}
	fastest := map[simCellSpec]time.Duration{}
	var setups []float64 // per cell run
	var virtual, cpu time.Duration
	var requests, events, mallocs, allocated float64
	var ms runtime.MemStats
	for pass := 0; pass < simPasses; pass++ {
		for _, c := range simCells {
			r, err := runSimCell(c, o.seed, measure)
			if err != nil {
				return nil, err
			}
			setups = append(setups, r.setupWall.Seconds())
			if best, ok := fastest[c]; !ok || r.runWall < best {
				fastest[c] = r.runWall
			}
			out.attempted += r.issued
			out.failed += r.failed
			if first := results[c]; first != nil {
				if r.mbps != first.mbps || r.events != first.events || r.latHash != first.latHash {
					out.problem("%+v is not deterministic: %v MB/s, %d events, then %v MB/s, %d events",
						c, first.mbps, first.events, r.mbps, r.events)
				}
				continue
			}
			results[c] = r
			virtual += r.virtual
			cpu += r.cpu
			requests += float64(r.measured)
			events += float64(r.events)
			mallocs += float64(r.mallocs)
			allocated += float64(r.allocated)
			if r.failed > 0 {
				out.problem("%+v: %d requests failed or completed twice", c, r.failed)
			}
			// One request per stream is in flight when virtual time stops.
			if inflight := r.issued - r.completed; inflight != int64(c.streamsPerDisk*simDisks) {
				out.problem("%+v: %d requests in flight at the end, want one per stream", c, inflight)
			}
			if c.scheduler && r.stats.PeakMemory > int64(c.streamsPerDisk*simDisks)*simReadAhead*2 {
				out.problem("%+v: staged memory peaked at %d, above M", c, r.stats.PeakMemory)
			}
		}
		if requests == 0 {
			return nil, fmt.Errorf("sim_streams: no request completed")
		}
		if pass == 0 {
			runtime.ReadMemStats(&ms)
		}
	}
	rss, _ := peakRSSMB()
	var wall time.Duration
	for _, d := range fastest {
		wall += d
	}

	top := results[simTop]
	lo, hi := math.Inf(1), 0.0
	for _, c := range simCells {
		if c.scheduler {
			lo, hi = math.Min(lo, results[c].mbps), math.Max(hi, results[c].mbps)
		}
	}
	insensitivity := lo / hi
	gain := top.mbps / results[simCellSpec{false, 100}].mbps
	// The paper's shape is part of correctness: throughput must stay
	// within a factor of the best as streams are added, and beat the
	// direct path at 100 streams per disk.
	if insensitivity < 0.6 || gain < 2 {
		out.problem("paper shape lost: insensitivity %.3f (want >= 0.6), gain %.2fx (want >= 2)", insensitivity, gain)
	}

	if !o.trace {
		m := out.metrics
		m["req_per_s"] = float64(top.measured) / top.virtual.Seconds()
		m["mb_per_s"] = top.mbps
		m["lat_tail_us"] = float64(quantile(top.lat, tailPercentile(len(top.lat), spec.tail))) / 1e3
		m["allocs_per_req"] = mallocs / requests
		m["peak_rss_mb"] = rss
		m["setup_s"] = median(setups)
		return out, nil
	}

	m := out.metrics
	m["sim.events"] = events
	m["sim.ns_per_event"] = float64(wall.Nanoseconds()) / events
	for _, c := range simCells {
		kind := "direct"
		if c.scheduler {
			kind = "core"
		}
		m[fmt.Sprintf("sim.%s_mb_per_s_%d", kind, c.streamsPerDisk)] = results[c].mbps
	}
	m["sim.insensitivity"] = insensitivity
	m["sim.gain_x"] = gain
	m["sim.s_per_wall_s"] = virtual.Seconds() / wall.Seconds()

	coreRows(m, top.stats, coreStats{}, 100*simDisks, 100*simDisks*simReadAhead*2)

	m["runtime.cpu_us_per_req"] = float64(cpu.Microseconds()) / requests
	m["runtime.gc_cycles"] = float64(ms.NumGC)
	m["runtime.gc_pause_total_ms"] = float64(ms.PauseTotalNs) / 1e6
	m["runtime.heap_peak_mb"] = float64(ms.HeapSys) / 1e6
	m["runtime.bytes_per_req"] = allocated / requests
	m["runtime.goroutines_peak"] = float64(runtime.NumGoroutine())
	m["load.requests"] = requests
	latencyRows(m, top.lat)
	m["load.long_req_frac"] = 1
	m["load.window_s"] = wall.Seconds()
	m["load.error_frac"] = float64(out.failed) / float64(out.attempted)
	return out, probeMetrics(m, o.probeIters)
}
