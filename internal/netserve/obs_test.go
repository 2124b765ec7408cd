package netserve

import (
	"net"
	"strings"
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/obs"
)

// TestObsMirrorsServerStats drives sequential streams over the wire
// and checks the metric families against the server's own counters,
// including the request-latency histogram fed by the storage node.
func TestObsMirrorsServerStats(t *testing.T) {
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	no := NewObs(reg)
	if err := no.AttachWindow(reg, blockdev.NewRealClock().Now, time.Minute); err != nil {
		t.Fatal(err)
	}
	srv.SetObs(no)
	srv.SetObs(no) // attaching again must not count the server twice

	client, err := DialOpts(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.RunStreams(0, 1<<30, 4, 16, 64<<10, 0); err != nil {
		t.Fatalf("RunStreams: %v", err)
	}
	client.Close()
	sendGarbage(t, srv.Addr())

	st := srv.Stats()
	if st.Requests == 0 || st.Errors == 0 {
		t.Fatalf("stats %+v: requests or errors uncounted; workload untested", st)
	}
	checkCounterFamilies(t, reg, st)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "seqstream_netserve_request_latency_seconds_count") {
		t.Error("latency histogram family missing from exposition")
	}
	for name := range counterFamilies(st) {
		if line := "# TYPE " + name + " counter"; !strings.Contains(out, line) {
			t.Errorf("exposition missing %q", line)
		}
	}
	vars := reg.Vars()
	hist, ok := vars["seqstream_netserve_request_latency_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("histogram var missing: %v", vars)
	}
	if hist["count"] != st.Requests {
		t.Errorf("latency observations = %v, want %d", hist["count"], st.Requests)
	}
	win, ok := vars["seqstream_netserve_request_latency_window_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("windowed latency var missing: %v", vars)
	}
	if win["count"] != st.Requests {
		t.Errorf("windowed observations = %v, want %d", win["count"], st.Requests)
	}
}

// counterFamilies maps every netserve counter family to the Stats
// field it reads.
func counterFamilies(st ServerStats) map[string]int64 {
	return map[string]int64{
		"seqstream_netserve_connections_total":       st.Conns,
		"seqstream_netserve_requests_total":          st.Requests,
		"seqstream_netserve_errors_total":            st.Errors,
		"seqstream_netserve_read_bytes_total":        st.BytesRead,
		"seqstream_netserve_dropped_responses_total": st.DroppedResponses,
	}
}

func checkCounterFamilies(t *testing.T, reg *obs.Registry, st ServerStats) {
	t.Helper()
	vars := reg.Vars()
	for name, want := range counterFamilies(st) {
		if got, ok := vars[name].(int64); !ok || got != want {
			t.Errorf("%s = %#v, want %d (Stats)", name, vars[name], want)
		}
	}
}

// sendGarbage opens a connection that breaks the protocol with a bad
// magic, which the server counts as an error, and waits for the server
// to hang up.
func sendGarbage(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a garbage frame")
	}
}

// TestObsCountersSumAcrossServers runs two servers in sequence over one
// registry: every counter family reports the sum of both servers'
// Stats, not just the newest one's.
func TestObsCountersSumAcrossServers(t *testing.T) {
	reg := obs.NewRegistry()
	var sum ServerStats
	for i := 0; i < 2; i++ {
		srv, err := NewServerOpts(newTestNode(t), "127.0.0.1:0", ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		srv.SetObs(NewObs(reg))
		client, err := DialOpts(srv.Addr(), ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := client.RunStreams(0, 1<<30, 2+2*i, 8, 64<<10, 0); err != nil {
			t.Fatalf("RunStreams: %v", err)
		}
		client.Close()
		sendGarbage(t, srv.Addr())
		srv.Close()
		st := srv.Stats()
		sum.Conns += st.Conns
		sum.Requests += st.Requests
		sum.Errors += st.Errors
		sum.BytesRead += st.BytesRead
		sum.DroppedResponses += st.DroppedResponses
	}
	if sum.Requests == 0 || sum.Errors != 2 {
		t.Fatalf("stats %+v: workload untested", sum)
	}
	checkCounterFamilies(t, reg, sum)
}

// TestObsOpenConnectionsGauge checks the gauge rises with a live
// client and returns to zero once every connection drains.
func TestObsOpenConnectionsGauge(t *testing.T) {
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv.SetObs(NewObs(reg))

	client, err := DialOpts(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.RunStreams(0, 1<<30, 1, 4, 64<<10, 0); err != nil {
		t.Fatalf("RunStreams: %v", err)
	}
	if got := reg.Vars()["seqstream_netserve_open_connections"]; got != int64(1) {
		t.Errorf("open_connections = %v with live client", got)
	}
	client.Close()
	srv.Close() // waits for the handler goroutines to drain
	if got := reg.Vars()["seqstream_netserve_open_connections"]; got != int64(0) {
		t.Errorf("open_connections = %v after close", got)
	}
}
