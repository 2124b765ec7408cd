package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/core"
	"seqstream/internal/flight"
	"seqstream/internal/health"
	"seqstream/internal/netserve"
)

func startNode(t *testing.T) *netserve.Server {
	t.Helper()
	dev, err := blockdev.NewMemDevice(1, 1<<30, 200*time.Microsecond, false)
	if err != nil {
		t.Fatal(err)
	}
	node, err := core.NewServer(dev, blockdev.NewRealClock(), core.DefaultConfig(32<<20, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	ing, err := core.NewIngest(dev, blockdev.NewRealClock(), core.IngestConfig{
		ChunkSize: 1 << 20, Memory: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ing.Close)
	srv, err := netserve.NewServerOpts(node, "127.0.0.1:0", netserve.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableWrites(ing)
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestRunReadLoad(t *testing.T) {
	srv := startNode(t)
	err := run([]string{
		"-addr", srv.Addr(), "-streams", "4", "-requests", "16",
		"-capacity", "1GiB", "-reqsize", "64KiB", "-per-stream",
		"-timeout", "30s", "-dial-retries", "3", "-dial-backoff", "10ms",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if srv.Stats().Requests != 64 {
		t.Errorf("server requests = %d", srv.Stats().Requests)
	}
}

// TestRunTracedLoad drives a -trace run against a node with a flight
// recorder attached: the client-stamped trace ids must surface in the
// recorder's timeline.
func TestRunTracedLoad(t *testing.T) {
	srv := startNode(t)
	rec, err := flight.New(blockdev.NewRealClock().Now, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFlight(rec)
	err = run([]string{
		"-addr", srv.Addr(), "-streams", "2", "-requests", "8",
		"-capacity", "1GiB", "-trace",
	})
	if err != nil {
		t.Fatalf("run -trace: %v", err)
	}
	traced := 0
	for _, ev := range rec.Snapshot().Merged() {
		if ev.Trace != 0 {
			traced++
		}
	}
	if traced == 0 {
		t.Error("no flight events carry a trace id after a -trace run")
	}
}

func TestRunWriteLoad(t *testing.T) {
	srv := startNode(t)
	err := run([]string{
		"-addr", srv.Addr(), "-streams", "2", "-requests", "8",
		"-capacity", "1GiB", "-write",
	})
	if err != nil {
		t.Fatalf("run -write: %v", err)
	}
}

func TestRunBadArgs(t *testing.T) {
	if err := run([]string{"-reqsize", "bogus"}); err == nil {
		t.Error("bad reqsize accepted")
	}
	if err := run([]string{"-capacity", "bogus"}); err == nil {
		t.Error("bad capacity accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:1"}); err == nil {
		t.Error("dead address accepted")
	}
	if err := run([]string{"-zzz"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunWithHealthSummary drives a load run with -health-addr pointed
// at a /debug/health endpoint and checks printHealth's rendering of
// the rollup.
func TestRunWithHealthSummary(t *testing.T) {
	srv := startNode(t)

	// A health engine over a synthetic breaker flap stands in for the
	// node's debug listener.
	clk := blockdev.NewRealClock()
	rec, err := flight.New(clk.Now, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := health.NewEngine(rec, nil, clk, health.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rec.Ring(0).Record(flight.Event{Op: flight.OpBreakerOpen, Disk: 0})
	rec.Ring(0).Record(flight.Event{Op: flight.OpBreakerOpen, Disk: 0})
	eng.Tick()
	ts := httptest.NewServer(health.Handler(eng))
	defer ts.Close()
	healthAddr := strings.TrimPrefix(ts.URL, "http://")

	err = run([]string{
		"-addr", srv.Addr(), "-streams", "2", "-requests", "8",
		"-capacity", "1GiB", "-health-addr", healthAddr,
	})
	if err != nil {
		t.Fatalf("run -health-addr: %v", err)
	}

	var b strings.Builder
	if err := printHealth(&b, healthAddr); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"health: verdict=degraded anomalies=1",
		"disk 0 [shard 0] degraded",
		"anomaly[breaker-flap] x1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}

	// A dead endpoint fails the summary, not silently.
	if err := printHealth(&b, "127.0.0.1:1"); err == nil {
		t.Error("dead health endpoint accepted")
	}
}
