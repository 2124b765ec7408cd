package core

import (
	"errors"
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/disk"
	"seqstream/internal/iostack"
	"seqstream/internal/sim"
)

// scriptNode builds a node whose device faults follow a script.
func scriptNode(t *testing.T, stackCfg iostack.Config, rules []blockdev.FaultRule, cfg Config) (*testNode, *blockdev.ScriptDevice) {
	t.Helper()
	eng := sim.NewEngine()
	host, err := iostack.New(eng, stackCfg)
	if err != nil {
		t.Fatal(err)
	}
	simDev, err := blockdev.NewSimDevice(host)
	if err != nil {
		t.Fatal(err)
	}
	clock := blockdev.NewSimClock(eng)
	sd, err := blockdev.NewScriptDevice(simDev, clock, rules)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sd, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return &testNode{eng: eng, host: host, dev: simDev, clock: clock, server: srv}, sd
}

// twoDiskConfig is BaseConfig with a second drive on the controller.
func twoDiskConfig() iostack.Config {
	cfg := iostack.BaseConfig(iostack.Options{})
	cfg.Controllers[0].Disks = append(cfg.Controllers[0].Disks, disk.ProfileWD800JD(2))
	return cfg
}

const failReq = 64 << 10

// detectStream drives the four direct detection reads of a sequential
// stream on disk and returns the next in-order offset. Detection
// triggers the stream's first read-ahead fetch; fault rules target
// fetches (not these 64K direct reads) via MinLen = the 1M read-ahead.
func detectStream(t *testing.T, n *testNode, disk int) int64 {
	t.Helper()
	for i := 0; i < 4; i++ {
		if r := n.do(t, Request{Disk: disk, Offset: int64(i) * failReq, Length: failReq}); r.Err != nil {
			t.Fatalf("detection read %d: %v", i, r.Err)
		}
	}
	return 4 * failReq
}

// startStream submits the four detection reads plus one in-order read
// that waits on the stream's first fetch — all before the engine runs,
// so the waiter is queued when the fetch resolves — then runs the
// engine until the waiter completes and returns its response.
func startStream(t *testing.T, n *testNode, disk int) Response {
	t.Helper()
	var resp Response
	waiterDone := false
	for i := 0; i < 5; i++ {
		i := i
		req := Request{Disk: disk, Offset: int64(i) * failReq, Length: failReq}
		if i < 4 {
			req.Done = func(r Response) {
				if r.Err != nil {
					t.Errorf("detection read %d: %v", i, r.Err)
				}
			}
		} else {
			req.Done = func(r Response) { resp, waiterDone = r, true }
		}
		if err := n.server.Submit(req); err != nil {
			t.Fatalf("Submit read %d: %v", i, err)
		}
	}
	n.await(t, func() bool { return waiterDone })
	return resp
}

func TestFailureConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.FetchTimeout = -time.Second },
		func(c *Config) { c.FetchRetries = -1 },
		func(c *Config) { c.FetchRetries = 2; c.RetryBackoff = -time.Millisecond },
		func(c *Config) { c.BreakerThreshold = -1 },
		func(c *Config) { c.BreakerThreshold = 2; c.BreakerCooldown = -time.Second },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(64<<20, 1<<20)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}

	// Enabling retries / the breaker defaults the paired duration.
	cfg := Config{ReadAhead: 1 << 20, Memory: 64 << 20, FetchRetries: 2, BreakerThreshold: 3}
	cfg.ApplyDefaults()
	if cfg.RetryBackoff <= 0 {
		t.Error("RetryBackoff not defaulted")
	}
	if cfg.BreakerCooldown <= 0 {
		t.Error("BreakerCooldown not defaulted")
	}
}

func TestHungFetchTimesOutAndStreamCollects(t *testing.T) {
	// The stream's first read-ahead fetch never completes. The waiter must receive ErrFetchTimeout, the staged
	// memory must be reclaimed immediately, and the stream must be
	// collectable (gcTick used to skip it forever via fetchInFlight).
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.FetchTimeout = 200 * time.Millisecond
	n, sd := scriptNode(t, iostack.BaseConfig(iostack.Options{}),
		[]blockdev.FaultRule{{Disk: 0, Mode: blockdev.FaultHang, MinLen: 1 << 20}}, cfg)

	r := startStream(t, n, 0)
	if !errors.Is(r.Err, ErrFetchTimeout) {
		t.Fatalf("waiter err = %v, want ErrFetchTimeout", r.Err)
	}
	if sd.Hung() != 1 {
		t.Errorf("Hung = %d, want 1", sd.Hung())
	}
	st := n.server.Stats()
	if st.FetchTimeouts != 1 {
		t.Errorf("FetchTimeouts = %d, want 1", st.FetchTimeouts)
	}
	if st.MemoryInUse != 0 {
		t.Errorf("MemoryInUse = %d after timeout, want 0", st.MemoryInUse)
	}

	// The stream idles out and the collector removes it even though the
	// device read is still outstanding.
	if err := n.eng.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := n.server.liveStreams.Load(); got != 0 {
		t.Errorf("live streams = %d after timeout+idle, want 0", got)
	}
	if st := n.server.Stats(); st.StreamsGCed == 0 {
		t.Error("hung stream was not garbage collected")
	}
}

func TestTransientFetchErrorRetries(t *testing.T) {
	// The first fetch fails transiently once; the retry succeeds, so
	// clients never see the error.
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.FetchRetries = 3
	cfg.RetryBackoff = time.Millisecond
	n, sd := scriptNode(t, iostack.BaseConfig(iostack.Options{}),
		[]blockdev.FaultRule{{Disk: 0, Mode: blockdev.FaultError, MinLen: 1 << 20, From: 1, To: 2}}, cfg)

	if r := startStream(t, n, 0); r.Err != nil {
		t.Fatalf("first waiter: %v", r.Err)
	}
	off := int64(5) * failReq
	for i := 0; i < 8; i++ {
		if r := n.do(t, Request{Disk: 0, Offset: off + int64(i)*failReq, Length: failReq}); r.Err != nil {
			t.Fatalf("read %d: %v", i, r.Err)
		}
	}
	if st := n.server.Stats(); st.FetchRetries != 1 {
		t.Errorf("FetchRetries = %d, want 1", st.FetchRetries)
	}
	if sd.Faults() != 1 {
		t.Errorf("Faults = %d, want 1", sd.Faults())
	}
}

func TestPersistentFetchErrorNotRetried(t *testing.T) {
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.FetchRetries = 3
	cfg.RetryBackoff = time.Millisecond
	n, _ := scriptNode(t, iostack.BaseConfig(iostack.Options{}),
		[]blockdev.FaultRule{{Disk: 0, Mode: blockdev.FaultError, MinLen: 1 << 20, From: 1, To: 2, Persistent: true}}, cfg)

	r := startStream(t, n, 0)
	if !errors.Is(r.Err, blockdev.ErrInjectedPersistent) {
		t.Fatalf("waiter err = %v, want ErrInjectedPersistent", r.Err)
	}
	if st := n.server.Stats(); st.FetchRetries != 0 {
		t.Errorf("FetchRetries = %d for persistent error, want 0", st.FetchRetries)
	}
}

func TestFetchRetriesExhausted(t *testing.T) {
	// Every fetch on disk 0 fails: after FetchRetries re-issues the
	// waiters get the device error, not an infinite retry loop.
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.FetchRetries = 2
	cfg.RetryBackoff = time.Millisecond
	n, sd := scriptNode(t, iostack.BaseConfig(iostack.Options{}),
		[]blockdev.FaultRule{{Disk: 0, Mode: blockdev.FaultError, MinLen: 1 << 20}}, cfg)

	r := startStream(t, n, 0)
	if !errors.Is(r.Err, blockdev.ErrInjected) {
		t.Fatalf("waiter err = %v, want ErrInjected", r.Err)
	}
	if st := n.server.Stats(); st.FetchRetries != 2 {
		t.Errorf("FetchRetries = %d, want 2", st.FetchRetries)
	}
	if sd.Faults() != 3 {
		t.Errorf("Faults = %d, want 3 (initial + 2 retries)", sd.Faults())
	}
	if st := n.server.Stats(); st.MemoryInUse != 0 {
		t.Errorf("MemoryInUse = %d after exhausted retries, want 0", st.MemoryInUse)
	}
}

func TestBreakerTripFastFailAndRecovery(t *testing.T) {
	// Device reads 1..4 on disk 0 fail. Three consecutive failures trip
	// the circuit; while open, requests fail fast without touching the
	// device; after the cooldown a probe decides the state.
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = 100 * time.Millisecond
	n, sd := scriptNode(t, iostack.BaseConfig(iostack.Options{}),
		[]blockdev.FaultRule{{Disk: 0, Mode: blockdev.FaultError, From: 1, To: 5}}, cfg)

	// Widely spaced 4K reads stay on the direct path (no stream forms).
	const spacing = 8 << 20
	readAt := func(i int) error {
		return n.do(t, Request{Disk: 0, Offset: int64(i) * spacing, Length: 4096}).Err
	}

	for i := 0; i < 3; i++ {
		if err := readAt(i); !errors.Is(err, blockdev.ErrInjected) {
			t.Fatalf("read %d: err = %v, want ErrInjected", i, err)
		}
	}
	st := n.server.Stats()
	if st.BreakerTrips != 1 || st.DisksDegraded != 1 {
		t.Fatalf("after 3 failures: trips=%d degraded=%d, want 1/1", st.BreakerTrips, st.DisksDegraded)
	}

	// Open: the next request fails fast and never reaches the device.
	if err := readAt(3); !errors.Is(err, ErrDiskDegraded) {
		t.Fatalf("open-circuit read: err = %v, want ErrDiskDegraded", err)
	}
	if sd.Faults() != 3 {
		t.Errorf("device saw %d faults, want 3 (fast-fail bypassed device)", sd.Faults())
	}
	if st := n.server.Stats(); st.BreakerFastFails != 1 {
		t.Errorf("BreakerFastFails = %d, want 1", st.BreakerFastFails)
	}

	// Cooldown elapses; the probe (device read #4) still fails → the
	// circuit re-opens immediately.
	if err := n.eng.RunFor(150 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := readAt(4); !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("probe read: err = %v, want ErrInjected", err)
	}
	if st := n.server.Stats(); st.BreakerTrips != 2 {
		t.Errorf("BreakerTrips = %d after failed probe, want 2", st.BreakerTrips)
	}

	// Second cooldown; the probe (read #5, past the fault window)
	// succeeds and the circuit closes.
	if err := n.eng.RunFor(150 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := readAt(5); err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	st = n.server.Stats()
	if st.DisksDegraded != 0 {
		t.Errorf("DisksDegraded = %d after recovery, want 0", st.DisksDegraded)
	}
	if err := readAt(6); err != nil {
		t.Errorf("post-recovery read: %v", err)
	}
}

// driveStream issues count sequential reads on disk and returns the
// virtual time of the last completion.
func driveStream(t *testing.T, n *testNode, disk, count int) time.Duration {
	t.Helper()
	completed := 0
	var last time.Duration
	var issue func(i int)
	issue = func(i int) {
		if i >= count {
			return
		}
		err := n.server.Submit(Request{
			Disk: disk, Offset: int64(i) * failReq, Length: failReq,
			Done: func(r Response) {
				if r.Err != nil {
					t.Errorf("disk %d read %d: %v", disk, i, r.Err)
				}
				completed++
				if r.End > last {
					last = r.End
				}
				issue(i + 1)
			},
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	issue(0)
	n.await(t, func() bool { return completed >= count })
	return last
}

func TestDegradedDiskIsolation(t *testing.T) {
	// The ISSUE acceptance scenario: disk 0's fetch hangs permanently.
	// Disk 1's streams must keep completing at full throughput, disk
	// 0's waiter gets a timeout error, the staged buffer is reclaimed,
	// and the hung stream is eventually collected.
	const count = 64
	rules := []blockdev.FaultRule{{Disk: 0, Mode: blockdev.FaultHang, MinLen: 1 << 20}}
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.FetchTimeout = 200 * time.Millisecond
	cfg.BreakerThreshold = 1
	cfg.BreakerCooldown = time.Hour // stays degraded for the test

	run := func(rules []blockdev.FaultRule) (time.Duration, *testNode) {
		n, _ := scriptNode(t, twoDiskConfig(), rules, cfg)
		// Start a disk-0 stream; under the hang rules its first fetch
		// never completes.
		off := detectStream(t, n, 0)
		var d0err error
		d0done := false
		if err := n.server.Submit(Request{Disk: 0, Offset: off, Length: failReq,
			Done: func(r Response) { d0err, d0done = r.Err, true }}); err != nil {
			t.Fatal(err)
		}
		elapsed := driveStream(t, n, 1, count)
		n.await(t, func() bool { return d0done })
		if len(rules) > 0 {
			if !errors.Is(d0err, ErrFetchTimeout) {
				t.Errorf("hung disk waiter err = %v, want ErrFetchTimeout", d0err)
			}
		} else if d0err != nil {
			t.Errorf("baseline disk-0 read: %v", d0err)
		}
		return elapsed, n
	}

	baseline, _ := run(nil)
	degraded, n := run(rules)

	// Disk 1 must not slow down because disk 0 is sick. (It may well
	// speed up: the hung disk stops competing for dispatch.)
	if limit := baseline + baseline/4; degraded > limit {
		t.Errorf("disk 1 under degraded disk 0: %v, want <= %v (baseline %v)", degraded, limit, baseline)
	}

	st := n.server.Stats()
	if st.FetchTimeouts == 0 {
		t.Error("no fetch timeouts recorded")
	}
	if st.DisksDegraded != 1 {
		t.Errorf("DisksDegraded = %d, want 1", st.DisksDegraded)
	}

	// New disk-0 requests fail fast; disk 1 keeps serving.
	if err := n.do(t, Request{Disk: 0, Offset: 32 << 20, Length: 4096}).Err; !errors.Is(err, ErrDiskDegraded) {
		t.Errorf("disk 0 request err = %v, want ErrDiskDegraded", err)
	}
	if err := n.do(t, Request{Disk: 1, Offset: int64(count) * failReq, Length: failReq}).Err; err != nil {
		t.Errorf("disk 1 request after degradation: %v", err)
	}

	// Everything drains: staged memory is reclaimed and the hung
	// stream is collected despite its outstanding device read.
	if err := n.eng.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	snap := n.server.Snapshot()
	if snap.Stats.MemoryInUse != 0 {
		t.Errorf("MemoryInUse = %d after drain, want 0", snap.Stats.MemoryInUse)
	}
	if snap.ActiveStreams != 0 {
		t.Errorf("ActiveStreams = %d after drain, want 0", snap.ActiveStreams)
	}
}

func TestRetryDuringTimeoutDropped(t *testing.T) {
	// A fetch that fails transiently and then times out while backing
	// off must not be re-issued: the abandoned flag wins.
	cfg := DefaultConfig(64<<20, 1<<20)
	cfg.FetchTimeout = 50 * time.Millisecond
	cfg.FetchRetries = 3
	cfg.RetryBackoff = 100 * time.Millisecond // longer than the deadline
	n, sd := scriptNode(t, iostack.BaseConfig(iostack.Options{}),
		[]blockdev.FaultRule{{Disk: 0, Mode: blockdev.FaultError, MinLen: 1 << 20}}, cfg)

	r := startStream(t, n, 0)
	if !errors.Is(r.Err, ErrFetchTimeout) {
		t.Fatalf("waiter err = %v, want ErrFetchTimeout", r.Err)
	}
	faults := sd.Faults()
	// Drain any pending backoff timers: no further device reads may
	// fire for the abandoned buffer.
	if err := n.eng.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if sd.Faults() != faults {
		t.Errorf("abandoned fetch was retried: faults %d -> %d", faults, sd.Faults())
	}
	if st := n.server.Stats(); st.MemoryInUse != 0 {
		t.Errorf("MemoryInUse = %d, want 0", st.MemoryInUse)
	}
}
