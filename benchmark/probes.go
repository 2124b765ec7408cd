package main

import (
	"runtime"
	"time"
)

// Layer probes: each times one exported call of one package in a loop
// of fixed length, best of five, and fills the *_ns / *_allocs rows.
// They run once per traced invocation, after the workload.
const (
	defaultProbeIters = 100_000
	probeRounds       = 5
)

// probeAllocs lists the probes whose allocations per call are reported
// beside their time.
var probeAllocs = map[string]bool{
	"netserve.write_request":  true,
	"netserve.read_request":   true,
	"netserve.write_response": true,
	"netserve.read_response":  true,
	"core.hit_path":           true,
}

func probeMetrics(m map[string]float64, iters int) error {
	if iters <= 0 {
		iters = defaultProbeIters
	}
	probes, closeAll, err := newProbes()
	if err != nil {
		return err
	}
	defer closeAll()
	var ms0, ms1 runtime.MemStats
	for _, p := range probes {
		for i := 0; i < iters/10; i++ {
			p.op()
		}
		best := time.Duration(1<<63 - 1)
		var allocs uint64
		for r := 0; r < probeRounds; r++ {
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			for i := 0; i < iters; i++ {
				p.op()
			}
			el := time.Since(start)
			runtime.ReadMemStats(&ms1)
			if el < best {
				best, allocs = el, ms1.Mallocs-ms0.Mallocs
			}
		}
		m[p.name+"_ns"] = float64(best.Nanoseconds()) / float64(iters)
		if probeAllocs[p.name] {
			m[p.name+"_allocs"] = float64(allocs) / float64(iters)
		}
	}
	m["core.telemetry_ns"] = m["core.hit_path_ns"] - m["core.hit_path_bare_ns"]
	return nil
}
