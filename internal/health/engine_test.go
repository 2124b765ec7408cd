package health

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/core"
	"seqstream/internal/flight"
)

// manualClock is a hand-advanced blockdev.Clock for engine tests:
// Schedule captures the callback, fire runs it.
type manualClock struct {
	mu     sync.Mutex
	now    time.Duration
	timers []*manualTimer
}

type manualTimer struct {
	at       time.Duration
	fn       func()
	canceled bool
}

func (c *manualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Schedule(d time.Duration, fn func()) (cancel func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &manualTimer{at: c.now + d, fn: fn}
	c.timers = append(c.timers, t)
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		t.canceled = true
	}
}

// advance moves time forward and runs every due, uncanceled timer.
func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	var due []*manualTimer
	rest := c.timers[:0]
	for _, t := range c.timers {
		if !t.canceled && t.at <= c.now {
			due = append(due, t)
		} else if !t.canceled {
			rest = append(rest, t)
		}
	}
	c.timers = rest
	c.mu.Unlock()
	for _, t := range due {
		t.fn()
	}
}

func (c *manualClock) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.timers {
		if !t.canceled {
			n++
		}
	}
	return n
}

var _ blockdev.Clock = (*manualClock)(nil)

// recordAll routes each event to the recorder ring matching its Shard
// stamp, the way core shards do.
func recordAll(rec *flight.Recorder, events []flight.Event) {
	for _, e := range events {
		rec.Ring(int(e.Shard)).Record(e)
	}
}

// anomalyScenario emits events that trip all four detectors (with the
// thresholds in anomalyConfig): stream 1 starves open-endedly (its
// enqueue is ring 0's first claim, so it globally precedes the ring-1
// rotations in Seq order), M churns, disk 1's breaker flaps, disk 1
// straggles behind shard 0.
func anomalyScenario() []flight.Event {
	var events []flight.Event
	events = append(events, flight.Event{Op: flight.OpEnqueue, Stream: 1, Disk: 0})
	for i := 0; i < 6; i++ {
		events = append(events, flight.Event{Op: flight.OpRotate, Stream: 2, Disk: 1, Shard: 1})
	}
	events = append(events,
		flight.Event{Op: flight.OpFetch, Length: 1000},
		flight.Event{Op: flight.OpEvict, Length: 500},
		flight.Event{Op: flight.OpBreakerOpen, Disk: 1},
		flight.Event{Op: flight.OpBreakerOpen, Disk: 1},
	)
	for i := 0; i < 8; i++ {
		events = append(events, flight.Event{Op: flight.OpStaged, Disk: 0, Shard: 0, Dur: time.Millisecond})
		events = append(events, flight.Event{Op: flight.OpStaged, Disk: 1, Shard: 0, Dur: 10 * time.Millisecond})
	}
	return events
}

func anomalyConfig() DetectorConfig {
	return DetectorConfig{StarveRotations: 5}
}

func newTestEngine(t *testing.T, rec *flight.Recorder, clk *manualClock, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(rec, nil, clk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineOnlineMatchesOffline is the parity acceptance check: the
// live engine, tailing the rings incrementally across several ticks,
// must report exactly what the offline detector finds on a snapshot of
// the same run.
func TestEngineOnlineMatchesOffline(t *testing.T) {
	clk := &manualClock{}
	rec, err := flight.New(clk.Now, 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, rec, clk, Config{Detectors: anomalyConfig()})

	// Feed the scenario in three chunks with a tick after each, so the
	// cursors genuinely run incrementally.
	events := anomalyScenario()
	for _, chunk := range [][]flight.Event{events[:5], events[5:14], events[14:]} {
		recordAll(rec, chunk)
		e.Tick()
	}

	online := e.Report().Anomalies
	offline := Detect(rec.Snapshot().Merged(), anomalyConfig())
	if len(online) == 0 {
		t.Fatal("engine found no anomalies")
	}
	if !reflect.DeepEqual(online, offline) {
		t.Fatalf("online/offline mismatch:\n online: %+v\noffline: %+v", online, offline)
	}
	kinds := map[string]bool{}
	for _, a := range online {
		kinds[a.Kind] = true
	}
	for _, k := range []string{KindRotationStarvation, KindMPressure, KindBreakerFlap, KindStragglerFetch} {
		if !kinds[k] {
			t.Fatalf("missing kind %s in %+v", k, online)
		}
	}
	if rep := e.Report(); rep.EventsSeen != uint64(len(events)) || rep.EventsLost != 0 {
		t.Fatalf("seen=%d lost=%d, want %d/0", rep.EventsSeen, rep.EventsLost, len(events))
	}
}

// TestEngineJournal checks raise/clear transitions land in the journal
// with timestamps: M pressure raises when eviction churn crosses the
// ratio, clears when enough fetched bytes dilute it.
func TestEngineJournal(t *testing.T) {
	clk := &manualClock{}
	rec, err := flight.New(clk.Now, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, rec, clk, Config{})

	recordAll(rec, []flight.Event{
		{Op: flight.OpFetch, Length: 1000},
		{Op: flight.OpEvict, Length: 500},
	})
	clk.advance(time.Second)
	e.Tick()
	j := e.Report().Journal
	if len(j) != 1 || j[0].Change != "raised" || j[0].Anomaly.Kind != KindMPressure {
		t.Fatalf("journal after raise = %+v", j)
	}
	if j[0].At != time.Second {
		t.Fatalf("raise stamped at %v", j[0].At)
	}

	recordAll(rec, []flight.Event{{Op: flight.OpFetch, Length: 100000}})
	clk.advance(time.Second)
	e.Tick()
	j = e.Report().Journal
	if len(j) != 2 || j[1].Change != "cleared" || j[1].Anomaly.Kind != KindMPressure {
		t.Fatalf("journal after clear = %+v", j)
	}
	if len(e.Report().Anomalies) != 0 {
		t.Fatalf("anomaly still active after clear: %+v", e.Report().Anomalies)
	}

	// A steady state adds nothing.
	e.Tick()
	if len(e.Report().Journal) != 2 {
		t.Fatalf("journal grew without transitions: %+v", e.Report().Journal)
	}
}

// TestEngineJournalBounded checks the journal drops oldest entries
// past its cap.
func TestEngineJournalBounded(t *testing.T) {
	clk := &manualClock{}
	rec, err := flight.New(clk.Now, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, rec, clk, Config{})
	e.journalCap = 2

	fetched := int64(1000)
	for i := 0; i < 2; i++ {
		// Evict half of everything fetched so far: raise.
		recordAll(rec, []flight.Event{{Op: flight.OpFetch, Length: fetched}, {Op: flight.OpEvict, Length: fetched}})
		fetched *= 2
		e.Tick()
		// Fetch 100× more: ratio collapses, clear.
		recordAll(rec, []flight.Event{{Op: flight.OpFetch, Length: fetched * 100}})
		fetched += fetched * 100
		e.Tick()
	}
	j := e.Report().Journal
	if len(j) != 2 {
		t.Fatalf("journal len = %d, want cap 2 (%+v)", len(j), j)
	}
	if j[0].Change != "raised" || j[1].Change != "cleared" {
		t.Fatalf("journal kept wrong entries: %+v", j)
	}
}

// TestEngineVerdicts exercises the rollup rules without a core server:
// breaker flaps degrade their disk, stragglers mark theirs, node-wide
// M pressure degrades the node only.
func TestEngineVerdicts(t *testing.T) {
	build := func(events []flight.Event) *Engine {
		clk := &manualClock{}
		rec, err := flight.New(clk.Now, 1, 256)
		if err != nil {
			t.Fatal(err)
		}
		e := newTestEngine(t, rec, clk, Config{Detectors: anomalyConfig()})
		recordAll(rec, events)
		e.Tick()
		return e
	}

	var flap []flight.Event
	flap = append(flap, flight.Event{Op: flight.OpBreakerOpen, Disk: 1})
	flap = append(flap, flight.Event{Op: flight.OpBreakerOpen, Disk: 1})
	rep := build(flap).Report()
	if rep.Verdict != VerdictDegraded {
		t.Fatalf("flap node verdict = %s", rep.Verdict)
	}
	if len(rep.Disks) != 1 || rep.Disks[0].Disk != 1 || rep.Disks[0].Verdict != VerdictDegraded {
		t.Fatalf("flap disks = %+v", rep.Disks)
	}
	if len(rep.Shards) != 1 || rep.Shards[0].Verdict != VerdictDegraded {
		t.Fatalf("flap shards = %+v", rep.Shards)
	}

	var strag []flight.Event
	for i := 0; i < 8; i++ {
		strag = append(strag, flight.Event{Op: flight.OpStaged, Disk: 0, Shard: 0, Dur: time.Millisecond})
		strag = append(strag, flight.Event{Op: flight.OpStaged, Disk: 1, Shard: 0, Dur: 10 * time.Millisecond})
	}
	rep = build(strag).Report()
	if rep.Verdict != VerdictStraggler {
		t.Fatalf("straggler node verdict = %s", rep.Verdict)
	}
	found := false
	for _, d := range rep.Disks {
		if d.Disk == 1 {
			found = true
			if d.Verdict != VerdictStraggler {
				t.Fatalf("straggler disk verdict = %s", d.Verdict)
			}
		} else if d.Verdict != VerdictHealthy {
			t.Fatalf("disk %d verdict = %s, want healthy", d.Disk, d.Verdict)
		}
	}
	if !found {
		t.Fatalf("disk 1 missing from report: %+v", rep.Disks)
	}

	rep = build([]flight.Event{
		{Op: flight.OpFetch, Length: 1000},
		{Op: flight.OpEvict, Length: 500},
	}).Report()
	if rep.Verdict != VerdictDegraded {
		t.Fatalf("m-pressure node verdict = %s", rep.Verdict)
	}
	for _, d := range rep.Disks {
		if d.Verdict != VerdictHealthy {
			t.Fatalf("m-pressure should not mark disks: %+v", d)
		}
	}

	rep = build(nil).Report()
	if rep.Verdict != VerdictHealthy || len(rep.Anomalies) != 0 {
		t.Fatalf("idle report = %+v", rep)
	}
}

// TestEngineExemplar checks a traced slow event surfaces as the disk's
// slow-fetch exemplar and ages out of the report past the window.
func TestEngineExemplar(t *testing.T) {
	clk := &manualClock{}
	rec, err := flight.New(clk.Now, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, rec, clk, Config{Window: time.Minute})

	recordAll(rec, []flight.Event{
		{Op: flight.OpStaged, Disk: 0, Trace: 0xabcd, Dur: 5 * time.Millisecond},
		{Op: flight.OpStaged, Disk: 0, Trace: 0x1234, Dur: 2 * time.Millisecond},
	})
	e.Tick()
	rep := e.Report()
	if len(rep.Disks) != 1 || rep.Disks[0].SlowTrace != 0xabcd || rep.Disks[0].SlowDur != 5*time.Millisecond {
		t.Fatalf("exemplar = %+v", rep.Disks)
	}
	// Past the window the exemplar no longer represents current
	// behavior and drops out.
	clk.advance(2 * time.Minute)
	if rep := e.Report(); rep.Disks[0].SlowTrace != 0 {
		t.Fatalf("stale exemplar survived: %+v", rep.Disks)
	}
}

// TestEngineStartClose drives the scheduled loop on the manual clock:
// Start arms a timer, each firing ticks and re-arms, Close cancels.
func TestEngineStartClose(t *testing.T) {
	clk := &manualClock{}
	rec, err := flight.New(clk.Now, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, rec, clk, Config{Interval: time.Second})

	e.Start()
	e.Start() // idempotent
	if n := clk.pending(); n != 1 {
		t.Fatalf("timers after Start = %d", n)
	}
	recordAll(rec, []flight.Event{{Op: flight.OpRotate}})
	clk.advance(time.Second)
	if rep := e.Report(); rep.EventsSeen != 1 {
		t.Fatalf("tick did not run: seen=%d", rep.EventsSeen)
	}
	if n := clk.pending(); n != 1 {
		t.Fatalf("loop did not re-arm: %d timers", n)
	}
	e.Close()
	if n := clk.pending(); n != 0 {
		t.Fatalf("Close left %d timers", n)
	}
	// A racing fire after Close would be a no-op anyway.
	recordAll(rec, []flight.Event{{Op: flight.OpRotate}})
	clk.advance(time.Second)
	if rep := e.Report(); rep.EventsSeen != 1 {
		t.Fatalf("tick ran after Close: seen=%d", rep.EventsSeen)
	}
}

// TestHandler checks both response formats at /debug/health.
func TestHandler(t *testing.T) {
	clk := &manualClock{}
	rec, err := flight.New(clk.Now, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, rec, clk, Config{})
	recordAll(rec, []flight.Event{
		{Op: flight.OpBreakerOpen, Disk: 1},
		{Op: flight.OpBreakerOpen, Disk: 1},
	})
	e.Tick()
	h := Handler(e)

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/health", nil))
	if ct := w.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	var rep Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictDegraded || len(rep.Anomalies) != 1 || rep.Anomalies[0].Kind != KindBreakerFlap {
		t.Fatalf("JSON report = %+v", rep)
	}
	if len(rep.Journal) != 1 || rep.Journal[0].Change != "raised" {
		t.Fatalf("JSON journal = %+v", rep.Journal)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/health?format=prom", nil))
	body := w.Body.String()
	for _, want := range []string{
		"seqstream_health_verdict 2\n",
		"seqstream_health_disk_verdict{disk=\"1\",shard=\"0\"} 2\n",
		"seqstream_health_anomalies{kind=\"breaker-flap\"} 1\n",
		"seqstream_health_events_seen_total 2\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prom output missing %q:\n%s", want, body)
		}
	}
}

// TestBufferHitZeroAllocWithEngine repeats the core buffer-hit
// allocation guard with the full health stack attached — windows on,
// flight recorder on, engine built over the rings. The measured
// request path must stay allocation-free; the engine's own work
// (cursor polling, detector state) happens on its tick, outside the
// request path, and is ticked around the measured loop here so the
// guard proves the attachment itself costs nothing per request.
func TestBufferHitZeroAllocWithEngine(t *testing.T) {
	dev, err := blockdev.NewMemDevice(1, 1<<30, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	clock := blockdev.NewRealClock()
	rec, err := flight.New(clock.Now, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(64<<20, 1<<20)
	cfg.NearSeqWindow = 1 << 20
	cfg.GCPeriod = time.Hour
	cfg.EvictIdle = time.Hour
	cfg.WindowSpan = time.Minute
	cfg.Flight = rec
	srv, err := core.NewServer(dev, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	e, err := NewEngine(rec, srv, clock, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const req = 64 << 10
	ch := make(chan struct{}, 1)
	done := func(r core.Response) {
		r.Release()
		ch <- struct{}{}
	}
	for i := 0; i < 16; i++ {
		if err := srv.Submit(core.Request{Disk: 0, Offset: int64(i) * req, Length: req, Done: done}); err != nil {
			t.Fatal(err)
		}
		<-ch
	}
	e.Tick()

	target := core.Request{Disk: 0, Offset: 14 * req, Length: req, Done: done}
	avg := testing.AllocsPerRun(200, func() {
		if err := srv.Submit(target); err != nil {
			t.Fatal(err)
		}
		<-ch
	})
	if avg != 0 {
		t.Errorf("buffer-hit path with health attached allocates: %.2f allocs/op, want 0", avg)
	}
	e.Tick()
	if rep := e.Report(); rep.EventsSeen == 0 {
		t.Fatal("engine consumed no events — the attachment was not live")
	}
}

// TestEngineWithServer attaches the engine to a real scheduler: the
// report carries windowed latency, per-disk telemetry, and breaker
// states, and the online findings agree with an offline snapshot of
// the same recorder.
func TestEngineWithServer(t *testing.T) {
	dev, err := blockdev.NewMemDevice(2, 1<<30, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	clock := blockdev.NewRealClock()
	rec, err := flight.New(clock.Now, 8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(64<<20, 1<<20)
	cfg.GCPeriod = time.Hour
	cfg.EvictIdle = time.Hour
	cfg.WindowSpan = time.Minute
	cfg.Flight = rec
	srv, err := core.NewServer(dev, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	e, err := NewEngine(rec, srv, clock, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.cfg.Window != time.Minute {
		t.Fatalf("engine window = %v, want server span", e.cfg.Window)
	}

	const req = 64 << 10
	ch := make(chan struct{}, 1)
	done := func(r core.Response) {
		if r.Err != nil {
			t.Errorf("read failed: %v", r.Err)
		}
		r.Release()
		ch <- struct{}{}
	}
	for i := 0; i < 16; i++ {
		if err := srv.Submit(core.Request{Disk: 0, Offset: int64(i) * req, Length: req, Done: done}); err != nil {
			t.Fatal(err)
		}
		<-ch
	}

	e.Tick()
	rep := e.Report()
	if rep.Verdict != VerdictHealthy {
		t.Fatalf("verdict = %s: %+v", rep.Verdict, rep.Anomalies)
	}
	if rep.Request.Count == 0 || rep.Request.P50 <= 0 {
		t.Fatalf("request window empty: %+v", rep.Request)
	}
	if rep.Fetch.Count == 0 {
		t.Fatalf("fetch window empty: %+v", rep.Fetch)
	}
	if len(rep.Disks) != 2 {
		t.Fatalf("disks = %+v", rep.Disks)
	}
	d0 := rep.Disks[0]
	if d0.Fetch.Count == 0 || d0.EWMA <= 0 {
		t.Fatalf("disk 0 telemetry empty: %+v", d0)
	}
	if d0.Breaker != "" && d0.Breaker != "closed" {
		t.Fatalf("disk 0 breaker = %q", d0.Breaker)
	}
	if rep.EventsSeen == 0 {
		t.Fatal("engine consumed no flight events")
	}
	if len(rep.Shards) != srv.NumShards() {
		t.Fatalf("shards = %d, want %d", len(rep.Shards), srv.NumShards())
	}

	online := e.Report().Anomalies
	offline := Detect(rec.Snapshot().Merged(), e.cfg.Detectors)
	if !reflect.DeepEqual(online, offline) {
		t.Fatalf("online/offline mismatch:\n online: %+v\noffline: %+v", online, offline)
	}
}
