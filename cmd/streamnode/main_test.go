package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"seqstream/internal/flight"
	"seqstream/internal/health"
	"seqstream/internal/netserve"
)

func testParams() buildParams {
	return buildParams{
		listen: "127.0.0.1:0", disks: 1, capacity: "256MiB",
		latency: 200 * time.Microsecond,
		memory:  "32MiB", ra: "1MiB", n: 1,
	}
}

func TestBuildAndServe(t *testing.T) {
	nd, err := build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	client, err := netserve.DialOpts(nd.srv.Addr(), netserve.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RunStreams(0, 256<<20, 4, 16, 64<<10, 0); err != nil {
		t.Fatalf("RunStreams: %v", err)
	}
	if nd.core.Stats().Requests != 64 {
		t.Errorf("node requests = %d", nd.core.Stats().Requests)
	}
}

// fetch GETs a debug endpoint and returns the body.
func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestDebugEndpoints(t *testing.T) {
	p := testParams()
	p.debugAddr = "127.0.0.1:0"
	p.healthInterval = 50 * time.Millisecond
	p.healthWindow = time.Minute
	nd, err := build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	client, err := netserve.DialOpts(nd.srv.Addr(), netserve.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RunStreams(0, 256<<20, 4, 16, 64<<10, 0); err != nil {
		t.Fatalf("RunStreams: %v", err)
	}

	base := "http://" + nd.debug.Addr()
	metrics := fetch(t, base+"/metrics")
	for _, family := range []string{
		// The acceptance contract: core, controller, and netserve
		// families are all present on one real-device node.
		"seqstream_core_dispatched_streams",
		"seqstream_core_buffer_hits_total",
		"seqstream_core_memory_in_use_bytes",
		"seqstream_controller_queue_depth",
		"seqstream_netserve_request_latency_seconds_bucket",
		"# TYPE seqstream_core_requests_total counter",
		"# TYPE seqstream_netserve_requests_total counter",
		// Runtime health rides on the same registry.
		"seqstream_runtime_goroutines",
		"seqstream_runtime_heap_inuse_bytes",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}

	var vars map[string]any
	if err := json.Unmarshal([]byte(fetch(t, base+"/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	for _, key := range []string{"metrics", "core", "netserve", "config", "spans"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}

	if body := fetch(t, base+"/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	idx := fetch(t, base+"/")
	if !strings.Contains(idx, "/metrics") {
		t.Errorf("index does not list endpoints: %q", idx)
	}
	if !strings.Contains(idx, "/debug/flight") {
		t.Errorf("index does not list /debug/flight: %q", idx)
	}

	// The always-on flight recorder saw the workload; the snapshot
	// endpoint serves it in both encodings.
	var snap flight.Snapshot
	if err := json.Unmarshal([]byte(fetch(t, base+"/debug/flight?format=json")), &snap); err != nil {
		t.Fatalf("/debug/flight?format=json is not a snapshot: %v", err)
	}
	if len(snap.Merged()) == 0 {
		t.Error("/debug/flight snapshot is empty after a streamed workload")
	}
	if _, err := flight.ReadSnapshot(strings.NewReader(fetch(t, base+"/debug/flight"))); err != nil {
		t.Errorf("binary /debug/flight does not parse: %v", err)
	}

	// The health engine runs and rolls the workload up at
	// /debug/health. Tick it directly rather than sleeping for the
	// 50ms poll.
	nd.health.Tick()
	var rep health.Report
	if err := json.Unmarshal([]byte(fetch(t, base+"/debug/health")), &rep); err != nil {
		t.Fatalf("/debug/health is not JSON: %v", err)
	}
	if rep.Verdict != health.VerdictHealthy {
		t.Errorf("healthy node reports %q: %+v", rep.Verdict, rep.Anomalies)
	}
	if len(rep.Disks) != 1 || rep.Disks[0].Fetch.Count == 0 {
		t.Errorf("/debug/health disk rollup empty: %+v", rep.Disks)
	}
	if rep.Request.Count == 0 {
		t.Errorf("/debug/health request window empty: %+v", rep.Request)
	}
	if rep.EventsSeen == 0 {
		t.Error("/debug/health saw no flight events")
	}
	prom := fetch(t, base+"/debug/health?format=prom")
	if !strings.Contains(prom, "seqstream_health_verdict 0") {
		t.Errorf("prom health output missing node verdict:\n%s", prom)
	}
	// The windowed metric families ride on /metrics too.
	metrics = fetch(t, base+"/metrics")
	for _, family := range []string{
		"seqstream_core_request_latency_window_seconds",
		"seqstream_core_fetch_latency_window_seconds",
		"seqstream_netserve_request_latency_window_seconds",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing windowed family %q", family)
		}
	}
}

// TestSpanLogSink exercises the -span-log path: spans recorded during
// a run must reach the file once the node closes, not die with the
// process.
func TestSpanLogSink(t *testing.T) {
	p := testParams()
	p.spanLogPath = filepath.Join(t.TempDir(), "spans.jsonl")
	nd, err := build(p)
	if err != nil {
		t.Fatal(err)
	}
	client, err := netserve.DialOpts(nd.srv.Addr(), netserve.ClientOptions{})
	if err != nil {
		nd.Close()
		t.Fatal(err)
	}
	if err := client.RunStreams(0, 256<<20, 4, 16, 64<<10, 0); err != nil {
		t.Fatalf("RunStreams: %v", err)
	}
	client.Close()
	nd.Close()

	data, err := os.ReadFile(p.spanLogPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("span log file is empty after shutdown")
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("span log line is not JSON: %v (%q)", err, lines[0])
	}
	if _, ok := ev["stage"]; !ok {
		t.Errorf("span entry missing stage: %q", lines[0])
	}
}

func TestStatsLine(t *testing.T) {
	p := testParams()
	nd, err := build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	line := statsLine(nd)
	for _, field := range []string{"requests=", "dispatched=", "queue=", "mem=", "conns="} {
		if !strings.Contains(line, field) {
			t.Errorf("stats line missing %q: %s", field, line)
		}
	}
}

func TestBuildWithIngest(t *testing.T) {
	p := testParams()
	p.ingest = true
	p.chunk = "1MiB"
	nd, err := build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	client, err := netserve.DialOpts(nd.srv.Addr(), netserve.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RunStreams(0, 256<<20, 2, 32, 64<<10, netserve.FlagWrite); err != nil {
		t.Fatalf("write streams: %v", err)
	}
	nd.ingest.Flush()
	if nd.ingest.Stats().Writes != 64 {
		t.Errorf("ingest writes = %d", nd.ingest.Stats().Writes)
	}
}

// TestBuildWithIngestFiles writes through a file-backed node: every
// acknowledged write must land in the file.
func TestBuildWithIngestFiles(t *testing.T) {
	const size = 4 << 20
	path := filepath.Join(t.TempDir(), "disk0.img")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xa5}, size), 0o600); err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.files = path
	p.ingest = true
	p.chunk = "1MiB"
	nd, err := build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	client, err := netserve.DialOpts(nd.srv.Addr(), netserve.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Two streams of 16 × 64 KiB: [0, 1 MiB) and [2 MiB, 3 MiB).
	if err := client.RunStreams(0, size, 2, 16, 64<<10, netserve.FlagWrite); err != nil {
		t.Fatalf("write streams: %v", err)
	}
	nd.ingest.Flush()
	if st := nd.ingest.Stats(); st.Writes != 32 || st.Errors != 0 {
		t.Fatalf("ingest writes = %d, errors = %d; want 32 and 0", st.Writes, st.Errors)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{0, 1 << 20}, {2 << 20, 3 << 20}} {
		for off := r[0]; off < r[1]; off++ {
			if got[off] != 0 {
				t.Errorf("byte %d of written range [%d, %d) is %#x, want 0", off, r[0], r[1], got[off])
				break
			}
		}
	}
}

func TestBuildBadParams(t *testing.T) {
	cases := []func(*buildParams){
		func(p *buildParams) { p.capacity = "bogus" },
		func(p *buildParams) { p.memory = "bogus" },
		func(p *buildParams) { p.ra = "bogus" },
		func(p *buildParams) { p.disks = 0 },
		func(p *buildParams) { p.ingest = true; p.chunk = "bogus" },
		func(p *buildParams) { p.files = "/nonexistent/nope.img" },
		func(p *buildParams) { p.listen = "256.256.256.256:1" },
		func(p *buildParams) { p.fault = "mode=nonsense" },
		func(p *buildParams) { p.fetchTimeout = -time.Second },
	}
	for i, mutate := range cases {
		p := testParams()
		mutate(&p)
		nd, err := build(p)
		if err == nil {
			nd.Close()
			t.Errorf("case %d: bad params accepted", i)
		}
	}
}

func TestBuildWithFaultScript(t *testing.T) {
	p := testParams()
	// Every third read-ahead fetch fails transiently; the retry knobs
	// must absorb the faults with no client-visible error.
	p.fault = "minlen=1048576,mode=err,every=3"
	p.fetchRetries = 3
	p.retryBackoff = time.Millisecond
	p.fetchTimeout = 5 * time.Second
	p.breakerThreshold = 50
	p.idleTimeout = time.Minute
	p.writeTimeout = time.Minute
	nd, err := build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	client, err := netserve.DialOpts(nd.srv.Addr(), netserve.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RunStreams(0, 256<<20, 4, 32, 64<<10, 0); err != nil {
		t.Fatalf("RunStreams through fault script: %v", err)
	}
	if got := nd.core.Stats().FetchRetries; got == 0 {
		t.Error("fault script injected no retried faults")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}
