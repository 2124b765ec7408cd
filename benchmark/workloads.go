package main

import (
	"time"

	"seqstream/benchmark/benchdev"
)

// workload is one named traffic mix. Names are stable: later issues
// cite them.
type workload struct {
	name string
	why  string // one line, repeated in BENCHMARK.json

	sim     bool       // virtual time; none of the fields below apply
	wire    bool       // loopback TCP through netserve, else core.Server.Submit in-process
	payload bool       // v2 payload frames, every response's bytes compared
	workers int        // connections (wire) or generator goroutines (in-process)
	lanes   []laneKind // per worker
	memory  int64      // M
	dev     benchdev.Config

	// tail is the percentile lat_tail_us reports: the 99th where the
	// dispatch rotation sets it, the 90th on the CPU-bound workloads,
	// whose 99th is the sandbox's preemption noise.
	tail float64
}

func lanes(long, short, random int) []laneKind {
	var out []laneKind
	for i := 0; i < long; i++ {
		out = append(out, laneLong)
	}
	for i := 0; i < short; i++ {
		out = append(out, laneShort)
	}
	for i := 0; i < random; i++ {
		out = append(out, laneRandom)
	}
	return out
}

func (w *workload) callSpan() string {
	if w.wire {
		return "netserve.client_go"
	}
	return "core.submit"
}

var workloads = []*workload{
	{
		name: "wire_dataless",
		why:  "loopback TCP, data-less v1 frames, 64 long streams on an instant device: per-request netserve cost dominates, core is a small share",
		wire: true, workers: 2, lanes: lanes(32, 0, 0), memory: 2 << 30, tail: 0.9,
	},
	{
		name: "wire_payload",
		why:  "same over v2 payload frames with every response's bytes checked: the byte path (bufpool, TakeBuf, writev, receive pool) does most of the work",
		wire: true, payload: true, workers: 2, lanes: lanes(32, 0, 0), memory: 2 << 30, tail: 0.9,
		dev: benchdev.Config{Data: true},
	},
	{
		name: "wire_disk",
		why:  "96 streams over a disk-model device (2 ms positioning, 200 MB/s, FIFO per disk) with M = 32 MiB so D < streams: device-bound, only dispatch and staging changes move it",
		wire: true, workers: 2, lanes: lanes(48, 0, 0), memory: 32 << 20, tail: 0.99,
		dev: benchdev.Config{Position: 2 * time.Millisecond, Rate: 200e6},
	},
	{
		name:    "core_seq",
		why:     "core.Server.Submit in-process, 64 long streams on an instant device: classifier lookup, shard lock, staged hit and the telemetry sinks are all of the cost",
		workers: 2, lanes: lanes(32, 0, 0), memory: 2 << 30, tail: 0.9,
	},
	{
		name:    "core_mixed",
		why:     "in-process mix of long streams, 256-request short runs and single random reads: stream churn, region allocation, eviction and direct reads beside hits",
		workers: 2, lanes: lanes(16, 12, 4), memory: 1 << 30, tail: 0.9,
	},
	{
		name: "sim_streams",
		why:  "the paper's Fig 13 point in virtual time at 10 to 100 streams per disk with the direct baseline: deterministic for a seed, so refactors cannot bend the result",
		sim:  true, tail: 0.99,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDecl declares one metric; BENCHMARK.json repeats the table and
// a test keeps the two equal.
type metricDecl struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

// endToEnd is what a user of the node sees. Every workload reports
// every one; README.md says what each means on sim_streams, and
// "Steadiness" there holds the measurements each bound rests on: on
// the same code the three that follow the machine's speed (and set-up)
// differ by 25-40 % between one quarter of an hour and the next, peak
// memory by 12 %; allocations repeat to 1 %.
var endToEnd = []metricDecl{
	{"req_per_s", "1/s", "higher", 0.25},
	{"mb_per_s", "MB/s", "higher", 0.25},
	{"lat_tail_us", "us", "lower", 0.25},
	{"allocs_per_req", "1", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

func layer(unit, better string, names ...string) []metricDecl {
	var out []metricDecl
	for _, n := range names {
		out = append(out, metricDecl{name: n, unit: unit, better: better})
	}
	return out
}

// perLayer is every single-layer number, layer = package name (load
// and runtime are the generator and the Go runtime).
var perLayer = concat(
	layer("ns", "lower", "netserve.client_go_ns"),
	layer("us", "lower", "netserve.sys_us_per_req", "netserve.user_us_per_req"),
	layer("count", "higher", "netserve.server_requests"),
	layer("count", "lower", "netserve.server_errors", "netserve.dropped_responses"),
	layer("ns", "lower", "netserve.write_request_ns", "netserve.read_request_ns",
		"netserve.write_response_ns", "netserve.write_response_payload_ns", "netserve.read_response_ns"),
	layer("1", "lower", "netserve.write_request_allocs", "netserve.read_request_allocs",
		"netserve.write_response_allocs", "netserve.read_response_allocs"),

	layer("ns", "lower", "core.submit_ns", "core.hit_path_ns", "core.hit_path_bare_ns", "core.telemetry_ns"),
	layer("1", "lower", "core.hit_path_allocs"),
	layer("1", "higher", "core.hit_frac"),
	layer("1", "lower", "core.queued_frac", "core.direct_frac"),
	layer("1", "higher", "core.reqs_per_fetch", "core.prefetch_useful_frac"),
	layer("count", "lower", "core.streams_detected"),
	layer("1", "lower", "core.false_stream_frac"),
	layer("count", "lower", "core.buffers_evicted", "core.buffers_gced", "core.regions_gced"),
	layer("1", "lower", "core.mem_peak_frac"),
	layer("1", "higher", "core.dispatch_occupancy"),
	layer("count", "lower", "core.candidate_queue_mean"),
	layer("1", "higher", "core.slo_on_time_frac"),

	layer("count", "lower", "bufpool.gets"),
	layer("1", "lower", "bufpool.miss_frac"),
	layer("MB", "lower", "bufpool.peak_out_mb"),
	layer("count", "lower", "bufpool.checked_out_end"),
	layer("ns", "lower", "bufpool.get_release_ns"),

	layer("count", "lower", "blockdev.reads"),
	layer("MB", "lower", "blockdev.read_mb"),
	layer("KB", "higher", "blockdev.mean_read_kb"),
	layer("1", "lower", "blockdev.seek_frac"),
	layer("1", "higher", "blockdev.busy_frac"),
	layer("ms", "lower", "blockdev.queue_wait_p99_ms"),
	layer("ns/MB", "lower", "blockdev.fill_ns_per_mb"),

	layer("count", "lower", "flight.events", "flight.lost"),
	layer("ns", "lower", "flight.record_ns"),
	layer("count", "higher", "slo.scored"),
	layer("ns", "lower", "slo.score_ns", "obs.window_observe_ns", "obs.histogram_observe_ns", "obs.spanlog_record_ns"),
	layer("count", "lower", "health.anomalies_raised"),

	layer("count", "lower", "sim.events"),
	layer("ns", "lower", "sim.ns_per_event"),
	layer("MB/s", "higher", "sim.core_mb_per_s_10", "sim.core_mb_per_s_30", "sim.core_mb_per_s_60",
		"sim.core_mb_per_s_100", "sim.direct_mb_per_s_10", "sim.direct_mb_per_s_100"),
	layer("1", "higher", "sim.insensitivity", "sim.gain_x", "sim.s_per_wall_s"),

	layer("us", "lower", "runtime.cpu_us_per_req"),
	layer("count", "lower", "runtime.gc_cycles"),
	layer("ms", "lower", "runtime.gc_pause_total_ms"),
	layer("MB", "lower", "runtime.heap_peak_mb"),
	layer("B", "lower", "runtime.bytes_per_req"),
	layer("count", "lower", "runtime.goroutines_peak"),

	layer("count", "higher", "load.requests", "load.samples"),
	layer("us", "lower", "load.lat_p50_us", "load.lat_p90_us", "load.lat_p99_us", "load.lat_p999_us", "load.lat_max_us"),
	layer("1", "higher", "load.long_req_frac", "load.short_req_frac", "load.random_req_frac"),
	layer("s", "higher", "load.window_s"),
	layer("1", "lower", "load.trace_overhead_frac", "load.error_frac"),
)

func concat(parts ...[]metricDecl) []metricDecl {
	var out []metricDecl
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
