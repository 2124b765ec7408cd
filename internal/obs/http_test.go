package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("seqstream_test_requests_total", "requests").Add(7)
	reg.Histogram("seqstream_test_latency_seconds", "latency").Observe(time.Millisecond)

	vars := map[string]VarFunc{
		"stack": func() any { return map[string]int{"disks": 2} },
	}
	srv, err := Serve("127.0.0.1:0", HandlerExtra(reg, vars, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	if !strings.Contains(metrics, "seqstream_test_requests_total 7") {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, "seqstream_test_latency_seconds_count 1") {
		t.Errorf("/metrics missing histogram:\n%s", metrics)
	}

	varsBody, ctype := get("/debug/vars")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/debug/vars content type = %q", ctype)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(varsBody), &decoded); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := decoded["metrics"]; !ok {
		t.Error("/debug/vars missing registry snapshot")
	}
	if _, ok := decoded["stack"]; !ok {
		t.Error("/debug/vars missing caller var")
	}

	pprofIndex, _ := get("/debug/pprof/")
	if !strings.Contains(pprofIndex, "goroutine") {
		t.Error("/debug/pprof/ does not look like a pprof index")
	}

	index, _ := get("/")
	if !strings.Contains(index, "/metrics") {
		t.Error("index page does not list /metrics")
	}

	resp, err := http.Get(base + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", resp.StatusCode)
	}
}
