package controller

import (
	"testing"

	"seqstream/internal/obs"
)

// TestObsMirrorsStats drives a read-ahead workload and checks every
// metric family against the controller's own counters.
func TestObsMirrorsStats(t *testing.T) {
	eng, c := newSetup(t, 1, func(cfg *Config) { cfg.ReadAhead = 1 << 20 })
	reg := obs.NewRegistry()
	c.SetObs(NewObs(reg))

	const req = 64 << 10
	done := 0
	for i := int64(0); i < 32; i++ {
		if err := c.Submit(0, i*req, req, func(Result) { done++ }); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 32 {
		t.Fatalf("completed %d of 32", done)
	}

	st := c.stats
	if st.CacheHits == 0 && st.Coalesced == 0 {
		t.Fatal("read-ahead produced no hits; workload untested")
	}
	vars := reg.Vars()
	for name, want := range map[string]int64{
		"seqstream_controller_requests_total":   st.Requests,
		"seqstream_controller_cache_hits_total": st.CacheHits,
		"seqstream_controller_coalesced_total":  st.Coalesced,
		"seqstream_controller_misses_total":     st.Misses,
		"seqstream_controller_host_bytes_total": st.BytesHost,
		"seqstream_controller_disk_bytes_total": st.BytesDisks,
	} {
		if got := vars[name]; got != want {
			t.Errorf("%s = %v, want %d (Stats)", name, got, want)
		}
	}
	// The engine has drained: nothing queued, nothing in flight.
	if got := vars["seqstream_controller_queue_depth"]; got != int64(0) {
		t.Errorf("queue_depth = %v after drain", got)
	}
	if got := vars["seqstream_controller_inflight_fetches"]; got != int64(0) {
		t.Errorf("inflight_fetches = %v after drain", got)
	}
}

// TestObsWriteAndRejectPaths checks writes are mirrored and rejected
// requests leave the monotone request counter consistent with Stats.
func TestObsWriteAndRejectPaths(t *testing.T) {
	eng, c := newSetup(t, 1, nil)
	reg := obs.NewRegistry()
	c.SetObs(NewObs(reg))

	if err := c.Submit(0, c.Disk(0).Capacity(), 4096, nil); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := c.SubmitWrite(0, 0, 4096, nil); err != nil {
		t.Fatalf("SubmitWrite: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := c.stats
	vars := reg.Vars()
	if got := vars["seqstream_controller_requests_total"]; got != st.Requests {
		t.Errorf("requests_total = %v, want %d", got, st.Requests)
	}
	if got := vars["seqstream_controller_writes_total"]; got != st.Writes {
		t.Errorf("writes_total = %v, want %d", got, st.Writes)
	}
}
