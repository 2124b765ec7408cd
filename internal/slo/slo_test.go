package slo

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced monotonic clock for deterministic
// window tests.
type fakeClock struct {
	mu sync.Mutex
	at time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.at += d
	c.mu.Unlock()
}

func testLedger(t *testing.T, mutate func(*Config)) (*Ledger, *fakeClock) {
	t.Helper()
	clk := &fakeClock{}
	cfg := Config{
		Target:     time.Millisecond,
		ReadAhead:  1 << 20,
		FastWindow: time.Second,
		MidWindow:  4 * time.Second,
		SlowWindow: 8 * time.Second,
		MinSamples: 8,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	l, err := NewLedger(cfg, clk.Now, 4)
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	return l, clk
}

func TestConfigValidate(t *testing.T) {
	good := Config{Target: time.Millisecond}
	good.ApplyDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("defaulted config invalid: %v", err)
	}
	if good.Objective != DefaultObjective || good.FastBurn != DefaultFastBurn {
		t.Fatalf("defaults not applied: %+v", good)
	}
	bad := []Config{
		{},
		{Target: time.Millisecond, LateFactor: 0.5},
		{Target: time.Millisecond, Objective: 1.5},
		{Target: time.Millisecond, FastBurn: -1},
	}
	for i, c := range bad {
		if c.LateFactor == 0 {
			c.LateFactor = DefaultLateFactor
		}
		if c.Objective == 0 {
			c.Objective = DefaultObjective
		}
		if c.FastWindow == 0 {
			c.FastWindow, c.MidWindow, c.SlowWindow = DefaultFastWindow, DefaultMidWindow, DefaultSlowWindow
		}
		if c.FastBurn == 0 {
			c.FastBurn, c.SlowBurn = DefaultFastBurn, DefaultSlowBurn
		}
		if c.SlowBurn == 0 {
			c.SlowBurn = DefaultSlowBurn
		}
		if c.MinSamples == 0 {
			c.MinSamples = 1
		}
		if c.TopStreams == 0 {
			c.TopStreams = 1
		}
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, c)
		}
	}
}

func TestDeadlineModel(t *testing.T) {
	l, _ := testLedger(t, nil)
	target := time.Millisecond
	if got := l.Deadline(1 << 20); got != target {
		t.Fatalf("full read-ahead deadline = %v, want %v", got, target)
	}
	if got := l.Deadline(2 << 20); got != target {
		t.Fatalf("over-length deadline = %v, want %v", got, target)
	}
	// Half a read-ahead is due at base/2 + base/2 * 1/2 = 3/4 target.
	if got := l.Deadline(512 << 10); got != 3*target/4 {
		t.Fatalf("half-length deadline = %v, want %v", got, 3*target/4)
	}
	// Tiny requests floor at base/2.
	if got := l.Deadline(0); got != target/2 {
		t.Fatalf("zero-length deadline = %v, want %v", got, target/2)
	}
	// Without a classified rate the deadline is flat.
	flat, _ := testLedger(t, func(c *Config) { c.ReadAhead = 0 })
	if got := flat.Deadline(1); got != target {
		t.Fatalf("rateless deadline = %v, want %v", got, target)
	}
	// Nil ledger is inert.
	var nilL *Ledger
	if got := nilL.Deadline(123); got != 0 {
		t.Fatalf("nil deadline = %v", got)
	}
}

func TestScoreVerdicts(t *testing.T) {
	l, _ := testLedger(t, nil)
	st := l.Admit(7, 2, 0)
	length := int64(1 << 20) // deadline = 1ms, missed beyond 4ms

	if v, late := l.Score(st, 2, length, 500*time.Microsecond, true); v != OnTime || late != 0 {
		t.Fatalf("fast delivery: %v lateness %v", v, late)
	}
	if v, late := l.Score(st, 2, length, 2*time.Millisecond, false); v != Late || late != time.Millisecond {
		t.Fatalf("late delivery: %v lateness %v", v, late)
	}
	if v, late := l.Score(st, 2, length, 10*time.Millisecond, false); v != Missed || late != 9*time.Millisecond {
		t.Fatalf("missed delivery: %v lateness %v", v, late)
	}
	// Exactly at the deadline is on time; one nanosecond over is not.
	if v, _ := l.Score(st, 2, length, time.Millisecond, false); v != OnTime {
		t.Fatalf("at-deadline delivery scored %v", v)
	}
	if v, late := l.Score(st, 2, length, time.Millisecond+1, false); v != Late || late < 2 {
		t.Fatalf("barely-late delivery: %v lateness %v (want >= 2ns clamp)", v, late)
	}
	if late := l.ScoreError(st, 2, length, 100*time.Microsecond); late < 2 {
		t.Fatalf("error lateness %v, want clamped >= 2ns", late)
	}

	onTime, late, missed := l.Totals()
	if onTime != 2 || late != 2 || missed != 2 {
		t.Fatalf("totals = %d/%d/%d, want 2/2/2", onTime, late, missed)
	}
	if got := l.disks[2].hits.Load(); got != 1 {
		t.Fatalf("buffer hits = %d, want 1", got)
	}
	if got := st.worstLate.Load(); got != int64(9*time.Millisecond) {
		t.Fatalf("worst lateness = %d", got)
	}

	rep := l.Report()
	if rep.SchemaVersion != SchemaVersion {
		t.Fatalf("schema version = %d", rep.SchemaVersion)
	}
	if rep.Node.Total != 6 || rep.Node.OnTime != 2 {
		t.Fatalf("node SLI = %+v", rep.Node)
	}
	if len(rep.Disks) != 1 || rep.Disks[0].Disk != 2 || rep.Disks[0].Total != 6 {
		t.Fatalf("disk SLIs = %+v", rep.Disks)
	}
	if len(rep.Streams) != 1 || rep.Streams[0].Stream != 7 || rep.Streams[0].Missed != 2 {
		t.Fatalf("stream SLIs = %+v", rep.Streams)
	}

	// Nil ledger and nil stream entries are inert.
	var nilL *Ledger
	if v, late := nilL.Score(nil, 0, 1, time.Hour, false); v != OnTime || late != 0 {
		t.Fatalf("nil ledger scored %v/%v", v, late)
	}
	l.Score(nil, 99, length, time.Millisecond, false) // out-of-range disk, nil stream: no panic
}

func TestVerdictString(t *testing.T) {
	if OnTime.String() != "on_time" || Late.String() != "late" || Missed.String() != "missed" {
		t.Fatalf("verdict strings: %v %v %v", OnTime, Late, Missed)
	}
}

func TestAdmitRetire(t *testing.T) {
	l, _ := testLedger(t, nil)
	a := l.Admit(1, 0, 0)
	b := l.Admit(2, 1, 0)
	if live := l.Report().LiveStreams; live != 2 {
		t.Fatalf("live = %d, want 2", live)
	}
	l.Retire(a)
	l.Retire(a) // idempotent
	l.Retire(nil)
	if live := l.Report().LiveStreams; live != 1 {
		t.Fatalf("live = %d, want 1", live)
	}
	rep := l.Report()
	if rep.Admitted != 2 || rep.Retired != 1 || rep.LiveStreams != 1 {
		t.Fatalf("report lifecycle = %+v", rep)
	}
	// Retired streams keep contributing nothing to the live list.
	if len(rep.Streams) != 1 || rep.Streams[0].Stream != b.id {
		t.Fatalf("live stream list = %+v", rep.Streams)
	}
}

func TestBurnRateTripAndRecovery(t *testing.T) {
	l, clk := testLedger(t, nil)
	st := l.Admit(1, 0, 0)
	length := int64(1 << 20)

	// Healthy traffic: no alert. On-time scores batch in the disk's
	// pending state, so publish them the way the scheduler does before
	// reading a snapshot.
	for i := 0; i < 50; i++ {
		l.Score(st, 0, length, 100*time.Microsecond, true)
		clk.Advance(10 * time.Millisecond)
	}
	l.Flush(0)
	s := l.Evaluate()
	if s.FastActive || s.SlowActive || len(s.Tripped) != 0 {
		t.Fatalf("healthy run alerted: %+v", s)
	}
	if s.Fast.Total == 0 || s.Fast.Violations != 0 {
		t.Fatalf("healthy fast window: %+v", s.Fast)
	}

	// Burn: disk 3 delivers everything 10x past deadline.
	for i := 0; i < 50; i++ {
		l.Score(st, 3, length, 10*time.Millisecond, false)
		clk.Advance(10 * time.Millisecond)
	}
	s = l.Evaluate()
	if !s.FastActive {
		t.Fatalf("fast alert did not activate: %+v", s)
	}
	if len(s.Tripped) == 0 || s.Tripped[0].Severity != "fast" {
		t.Fatalf("expected fast trip, got %+v", s.Tripped)
	}
	if s.WorstDisk != 3 {
		t.Fatalf("worst disk = %d, want 3", s.WorstDisk)
	}
	// Still active on the next evaluation, but no new trip edge.
	s = l.Evaluate()
	if !s.FastActive || len(s.Tripped) != 0 {
		t.Fatalf("second evaluation should hold without re-tripping: %+v", s)
	}
	// Report is read-only: it must not consume future trip edges.
	if rep := l.Report(); !rep.Burn.FastActive || len(rep.Burn.Tripped) != 0 {
		t.Fatalf("report mutated alert state: %+v", rep.Burn)
	}

	// Recovery: let the fast and mid windows age out, serve on time.
	clk.Advance(10 * time.Second)
	for i := 0; i < 50; i++ {
		l.Score(st, 0, length, 100*time.Microsecond, true)
		clk.Advance(10 * time.Millisecond)
	}
	l.Flush(0)
	s = l.Evaluate()
	if s.FastActive {
		t.Fatalf("fast alert stuck after recovery: %+v", s)
	}

	// A second incident trips a fresh edge.
	for i := 0; i < 50; i++ {
		l.Score(st, 3, length, 10*time.Millisecond, false)
		clk.Advance(10 * time.Millisecond)
	}
	s = l.Evaluate()
	if !s.FastActive || len(s.Tripped) == 0 {
		t.Fatalf("second incident did not re-trip: %+v", s)
	}
}

func TestSlowBurnAlert(t *testing.T) {
	l, clk := testLedger(t, func(c *Config) {
		// Make the fast threshold unreachable so only the slow alert
		// can fire.
		c.FastBurn = 1e9
	})
	st := l.Admit(1, 0, 0)
	for i := 0; i < 100; i++ {
		l.Score(st, 1, 1<<20, 20*time.Millisecond, false)
		clk.Advance(50 * time.Millisecond)
	}
	s := l.Evaluate()
	if s.FastActive {
		t.Fatalf("fast alert fired below threshold: %+v", s)
	}
	if !s.SlowActive || len(s.Tripped) != 1 || s.Tripped[0].Severity != "slow" {
		t.Fatalf("slow alert missing: %+v", s)
	}
}

func TestMinSamplesGate(t *testing.T) {
	l, _ := testLedger(t, func(c *Config) { c.MinSamples = 1000 })
	st := l.Admit(1, 0, 0)
	for i := 0; i < 20; i++ {
		l.Score(st, 0, 1<<20, time.Hour, false)
	}
	if s := l.Evaluate(); s.FastActive || s.SlowActive {
		t.Fatalf("alerts fired below the sample gate: %+v", s)
	}
}

// TestLedgerRetirementConcurrent drives admission, scoring, and
// retirement from concurrent goroutines and checks no ledger entries
// leak. Scoring and retirement for one disk serialize through a
// per-disk mutex — the scheduler's shard-lock discipline the ledger's
// pending batches rely on — while Report races the writers lock-free.
// Run under -race.
func TestLedgerRetirementConcurrent(t *testing.T) {
	l, _ := testLedger(t, nil)
	const (
		workers = 8
		rounds  = 200
	)
	var diskMu [4]sync.Mutex // stands in for the owning shard's lock
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			disk := w % 4
			for i := 0; i < rounds; i++ {
				id := int32(w*rounds + i)
				st := l.Admit(id, disk, 0)
				for j := 0; j < 4; j++ {
					diskMu[disk].Lock()
					l.Score(st, disk, 1<<20, time.Duration(j)*time.Millisecond, j%2 == 0)
					diskMu[disk].Unlock()
				}
				if i%3 == 0 {
					l.Report() // reader racing the writers
				}
				diskMu[disk].Lock()
				l.Retire(st)
				diskMu[disk].Unlock()
			}
		}(w)
	}
	wg.Wait()
	if got := len(l.streams); got != 0 {
		t.Fatalf("leaked %d ledger entries after retirement", got)
	}
	rep := l.Report()
	if rep.Admitted != workers*rounds || rep.Retired != workers*rounds {
		t.Fatalf("lifecycle counts = %d admitted / %d retired, want %d each",
			rep.Admitted, rep.Retired, workers*rounds)
	}
	onTime, late, missed := l.Totals()
	if onTime+late+missed != workers*rounds*4 {
		t.Fatalf("scored %d deliveries, want %d", onTime+late+missed, workers*rounds*4)
	}
}

func TestScoreZeroAlloc(t *testing.T) {
	l, _ := testLedger(t, nil)
	st := l.Admit(1, 0, 0)
	avg := testing.AllocsPerRun(500, func() {
		l.Score(st, 0, 1<<20, 500*time.Microsecond, true)
		l.Score(st, 0, 1<<20, 2*time.Millisecond, false)
	})
	if avg != 0 {
		t.Fatalf("Score allocates %.2f/op, want 0", avg)
	}
}
