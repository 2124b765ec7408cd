package main

// load.go is the closed-loop generator for the five real-time
// workloads: every lane (stream) keeps exactly one request outstanding
// and issues the next when the response arrives (the paper's §5 client
// model). No lane can block another: wire lanes re-issue from the
// Client.Go callback on the connection's reader goroutine, in-process
// lanes hand their completion to the worker's ready queue, so a worker
// never waits on one lane while staged memory is held for its others.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"seqstream/benchmark/benchdev"
)

const (
	spanBytes     = int64(64) << 30  // each sequential lane owns one aligned span
	randomBase    = nodeCapacity / 2 // random reads use the disk's upper half
	shortRunLen   = 256              // requests per short run
	warmRequests  = 256              // per lane, before the measured window
	traceOneIn    = 64               // traced run: requests that get spans
	yieldEvery    = 64               // in-process workers yield the processor this often
	sliceDuration = time.Second      // the window is cut into slices for the tail percentile
)

type laneKind uint8

const (
	laneLong laneKind = iota
	laneShort
	laneRandom
	numLaneKinds
)

// lane is one closed-loop client. Its fields are written only by the
// goroutine that owns the worker, except t1 and err, which the
// completion callback writes before handing the lane over.
type lane struct {
	w    *worker
	id   int
	kind laneKind
	disk int
	base int64 // start of the lane's span
	next int64 // next sequential offset
	left int   // short lanes: requests left in the current run
	rng  uint64

	kick        bool // queued by start, not by a completion
	outstanding bool
	off         int64 // offset of the outstanding request
	t0, t1      time.Duration
	err         error
	tracedReq   uint64 // request id when the outstanding request is traced

	issued, completed int64
	runs              int64 // short lanes: sequential runs started

	wireDone func(wireResponse, time.Duration)
	coreDone func(coreResponse)
}

func (l *lane) rand() uint64 {
	l.rng += 0x9e3779b97f4a7c15
	x := l.rng
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextOffset advances the lane and returns the offset to read.
func (l *lane) nextOffset() int64 {
	switch l.kind {
	case laneRandom:
		return randomBase + int64(l.rand()%uint64((nodeCapacity-randomBase)/reqSize))*reqSize
	case laneShort:
		if l.left == 0 {
			l.left = shortRunLen
			l.next = l.base + int64(l.rand()%uint64(spanBytes/reqSize-shortRunLen))*reqSize
			l.runs++
		}
		l.left--
	}
	off := l.next
	l.next += reqSize
	return off
}

// samples keeps every latency of one measured window exactly, in
// arrival order, with the index at which each slice of the window
// ends and the stamp of the slice's last completion. The worker's
// goroutine alone touches it while a window is open.
type samples struct {
	ns      []uint32 // backed by mem, outside the Go heap
	mem     []byte
	bounds  []int           // bounds[k] = samples recorded before slice k+1 began
	lasts   []time.Duration // lasts[k] = when the last of them completed
	last    time.Duration   // when the latest sample completed
	sliceNs int64
	slices  int
	dropped int64 // completions that did not fit (never, unless the sizing is wrong)
}

// samplesPerSecond sizes a worker's sample store; untouched pages cost
// nothing, so it is far above any rate one worker reaches.
const samplesPerSecond = 4 << 20

// alloc maps a store for windows up to maxWindow long. The memory is
// outside the Go heap: tens of megabytes of live heap owned by the
// generator would halve the node's garbage-collection rate.
func (s *samples) alloc(maxWindow time.Duration) error {
	n := (int(maxWindow/time.Second) + 1) * samplesPerSecond
	mem, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("sample store: %w", err)
	}
	s.mem = mem
	s.ns = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)[:0]
	return nil
}

func (s *samples) free() {
	if s.mem != nil {
		_ = syscall.Munmap(s.mem) // the mapping is ours and whole; nothing to do on failure
		s.mem, s.ns = nil, nil
	}
}

// sliceCount cuts a window into whole slices of about sliceDuration.
func sliceCount(window time.Duration) (int, time.Duration) {
	n := int(window / sliceDuration)
	if n < 1 {
		n = 1
	}
	return n, window / time.Duration(n)
}

func (s *samples) begin(window time.Duration) {
	var sliceLen time.Duration
	s.slices, sliceLen = sliceCount(window)
	s.sliceNs = int64(sliceLen)
	s.ns, s.bounds, s.lasts, s.last, s.dropped = s.ns[:0], s.bounds[:0], s.lasts[:0], 0, 0
}

// add records one completion stamped `end` after the window opened and
// reports whether it fell inside the window.
func (s *samples) add(end, lat time.Duration) bool {
	if end < 0 {
		return false
	}
	k := int(int64(end) / s.sliceNs)
	if k > s.slices {
		k = s.slices
	}
	for len(s.bounds) < k {
		s.bounds = append(s.bounds, len(s.ns))
		s.lasts = append(s.lasts, s.last)
	}
	if k == s.slices {
		return false
	}
	if len(s.ns) == cap(s.ns) {
		s.dropped++
		return false
	}
	if lat > math.MaxUint32 {
		lat = math.MaxUint32
	}
	s.ns = append(s.ns, uint32(lat))
	s.last = end
	return true
}

// end is the number of samples recorded when slice k ended.
func (s *samples) end(k int) int {
	switch {
	case k < 0:
		return 0
	case k < len(s.bounds):
		return s.bounds[k]
	}
	return len(s.ns)
}

// slice returns the samples of slice k.
func (s *samples) slice(k int) []uint32 { return s.ns[s.end(k-1):s.end(k)] }

// lastIn is when the last completion of slice k, or failing that of an
// earlier slice, was stamped.
func (s *samples) lastIn(k int) time.Duration {
	switch {
	case k < 0:
		return 0
	case k < len(s.lasts):
		return s.lasts[k]
	}
	return s.last
}

// rate is the worker's completions per second in slice k: the slice's
// completions over the time from the previous slice's last completion
// to its own last. Dividing by the slice's nominal length instead
// would count in whole device reads (16 requests arrive at once when a
// 1 MiB read completes) and read the same number run after run.
func (s *samples) rate(k int) float64 {
	span := s.lastIn(k) - s.lastIn(k-1)
	if span <= 0 {
		return 0
	}
	return float64(s.end(k)-s.end(k-1)) / span.Seconds()
}

// windowSpec opens a measured window on the running lanes.
type windowSpec struct {
	open   time.Duration // on the node's clock
	length time.Duration
	traced bool
}

// worker owns a set of lanes and everything their completions touch.
// Wire workers are driven by their connection's reader goroutine;
// in-process workers by their own goroutine draining ready.
type worker struct {
	g      *generator
	client *wireClient // wire workloads
	ready  chan *lane  // in-process workloads; capacity = lanes, so sends never block
	lanes  []*lane
	tr     *tracer

	// The measuring goroutine posts a window (or nil, to close it) in
	// post; the worker adopts it at its next completion and says so in
	// seen. Between the two, rec and the counters are the worker's.
	post, seen atomic.Pointer[windowSpec]
	win        *windowSpec
	recWin     *windowSpec // the window rec holds
	rec        samples
	kindReqs   [numLaneKinds]int64 // completions inside the window, by lane kind
	runs       int64               // sequential runs started while it was open
	traceTick  int64               // requests issued in traced windows

	failed   int64
	firstErr error
}

// generator drives one node with one workload.
type generator struct {
	spec    *workload
	node    *node
	workers []*worker
	flags   uint16

	stop     atomic.Bool
	warmed   atomic.Int64  // lanes that have completed warmRequests
	warm     chan struct{} // closed when every lane has
	broken   chan struct{} // closed when a lane could not issue: the warm-up may never end
	breakIt  sync.Once
	active   sync.WaitGroup // lanes still issuing
	workerWG sync.WaitGroup
}

// since is the time on the node's clock, which stamps t0/t1 and, in the
// device, the reads a traced request is joined to.
func (g *generator) since() time.Duration { return g.node.now() }

// newGenerator builds the node's clients and lanes; offsets come from
// seed alone. maxWindow sizes the sample stores.
func newGenerator(spec *workload, n *node, seed uint64, tr *tracer, maxWindow time.Duration) (*generator, error) {
	g := &generator{spec: spec, node: n, warm: make(chan struct{}), broken: make(chan struct{})}
	if spec.payload {
		g.flags = wireFlagData
	}
	for wi := 0; wi < spec.workers; wi++ {
		w := &worker{g: g, tr: tr}
		g.workers = append(g.workers, w)
		if err := w.rec.alloc(maxWindow); err != nil {
			g.close()
			return nil, err
		}
		if spec.wire {
			c, err := n.dial(spec.payload)
			if err != nil {
				g.close()
				return nil, err
			}
			w.client = c
		} else {
			w.ready = make(chan *lane, len(spec.lanes))
			g.workerWG.Add(1)
			go w.loop()
		}
		for li, kind := range spec.lanes {
			idx := wi*len(spec.lanes) + li
			l := &lane{w: w, id: idx, kind: kind, disk: idx % nodeDisks,
				base: int64(idx/nodeDisks) * spanBytes,
				rng:  seed*0x9e3779b97f4a7c15 + uint64(idx)}
			if l.base+spanBytes > randomBase {
				g.close()
				return nil, errors.New("too many lanes for the sequential half of the disks")
			}
			if kind == laneLong {
				l.next = l.base + int64(l.rand()%uint64(spanBytes/8/reqSize))*reqSize
			}
			l.wireDone = func(r wireResponse, _ time.Duration) { w.onWire(l, r) }
			l.coreDone = func(r coreResponse) { onCore(l, r) }
			w.lanes = append(w.lanes, l)
		}
	}
	return g, nil
}

// close releases the workers; every lane must be parked.
func (g *generator) close() {
	for _, w := range g.workers {
		if w.client != nil {
			w.client.Close()
		} else if w.ready != nil {
			close(w.ready)
		}
		w.rec.free()
	}
	g.workerWG.Wait()
}

// loop is an in-process worker: it takes completed (or newly kicked)
// lanes off the ready queue, books the completion and issues the
// lane's next request.
func (w *worker) loop() {
	defer w.g.workerWG.Done()
	n := 0
	for l := range w.ready {
		if l.kick {
			l.kick = false
		} else {
			w.complete(l)
		}
		w.issue(l)
		// Staged hits complete inside Submit, so this loop never blocks;
		// without a yield the runtime gets to its timers only at the
		// 10 ms preemption tick, and direct reads, which complete
		// through the node's clock, starve.
		if n++; n%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

// onCore is the in-process completion callback. It may run inside
// Submit or on a timer goroutine, so it only stamps the lane and hands
// it to the owning worker.
func onCore(l *lane, r coreResponse) {
	l.t1 = l.w.g.since()
	l.err = r.Err
	if r.Err == nil && r.Data != nil && int64(len(r.Data)) != reqSize {
		l.err = fmt.Errorf("lane %d: %d bytes delivered, want %d", l.id, len(r.Data), reqSize)
	}
	r.Release()
	l.w.ready <- l
}

// onWire is the wire completion callback, on the connection's reader
// goroutine, which owns the worker.
func (w *worker) onWire(l *lane, r wireResponse) {
	l.t1 = w.g.since()
	l.err = nil
	switch {
	case r.Status != wireStatusOK:
		l.err = fmt.Errorf("lane %d: status %d", l.id, r.Status)
	case w.g.spec.payload:
		// Every payload response is compared with the pattern, and its
		// offset echo with the lane's own bookkeeping.
		if r.Flags&wireRespPayload == 0 || r.Offset != l.off ||
			!bytes.Equal(r.Data, benchdev.Expect(l.disk, l.off, reqSize)) {
			l.err = fmt.Errorf("lane %d: bad payload at disk %d offset %d (echo %d, %d bytes, flags %#x)",
				l.id, l.disk, l.off, r.Offset, len(r.Data), r.Flags)
		}
	}
	r.Release()
	w.complete(l)
	w.issue(l)
}

// complete books the lane's finished request.
func (w *worker) complete(l *lane) {
	g := w.g
	if !l.outstanding {
		w.fail(fmt.Errorf("lane %d: completion with no request outstanding", l.id))
		return
	}
	l.outstanding = false
	l.completed++
	if l.completed == warmRequests && int(g.warmed.Add(1)) == len(g.workers)*len(w.lanes) {
		close(g.warm)
	}
	if l.err != nil {
		w.fail(l.err)
	}
	if l.tracedReq != 0 {
		w.tr.end(l.tracedReq, l.t1)
		l.tracedReq = 0
	}
	if p := w.post.Load(); p != w.win {
		w.win = p
		if p != nil {
			w.recWin = p
			w.rec.begin(p.length)
			w.kindReqs, w.runs = [numLaneKinds]int64{}, 0
		}
		w.seen.Store(p)
	}
	if w.win != nil && w.rec.add(l.t1-w.win.open, l.t1-l.t0) {
		w.kindReqs[l.kind]++
	}
}

func (w *worker) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// sampleTrace picks one request in traceOneIn of the worker's.
func (w *worker) sampleTrace() bool {
	w.traceTick++
	return w.traceTick%traceOneIn == 0
}

// issue sends the lane's next request, or parks the lane when the
// generator is stopping.
func (w *worker) issue(l *lane) {
	g := w.g
	if g.stop.Load() {
		g.active.Done()
		return
	}
	runs := l.runs
	l.off = l.nextOffset()
	if l.runs != runs && w.win != nil {
		w.runs++
	}
	l.outstanding = true
	l.issued++
	t0 := g.since()
	l.t0 = t0
	var req uint64
	if w.win != nil && w.win.traced && w.sampleTrace() {
		req = w.tr.root(t0, l.disk, l.off)
		l.tracedReq = req
	}
	var err error
	if w.client != nil {
		err = w.client.Go(l.id, uint16(l.disk), l.off, reqSize, g.flags, l.wireDone)
	} else {
		err = g.node.core.Submit(coreRequest{Disk: l.disk, Offset: l.off, Length: reqSize, Done: l.coreDone})
	}
	// From here the lane may already belong to its next request (a wire
	// response can be handled on the reader goroutine while start() is
	// still kicking lanes off), so only locals are used.
	if req != 0 {
		w.tr.call(req, g.spec.callSpan(), t0, g.since())
	}
	if err != nil {
		// Nothing is outstanding: the callback will not run.
		l.outstanding = false
		w.fail(fmt.Errorf("lane %d: issue: %w", l.id, err))
		g.active.Done()
		g.breakIt.Do(func() { close(g.broken) })
	}
}

// start sets every lane issuing requests back to back and returns when
// each has completed warmRequests of them. Lanes that get there first
// keep going, so none leaves read-ahead staged in memory the others
// are waiting for.
func (g *generator) start() {
	for _, w := range g.workers {
		g.active.Add(len(w.lanes))
	}
	for _, w := range g.workers {
		for _, l := range w.lanes {
			if w.client != nil {
				w.issue(l)
			} else {
				l.kick = true
				w.ready <- l
			}
		}
	}
	select {
	case <-g.warm:
	case <-g.broken:
	}
}

// window opens a measured window on the running lanes, sleeps through
// it calling atSlice as each slice of it ends (the last call is the
// moment the window closes), and returns once every worker has closed
// the window, after which the workers' samples may be read.
func (g *generator) window(spec *windowSpec, atSlice func(last bool)) error {
	slices, sliceLen := sliceCount(spec.length)
	spec.open = g.since()
	for _, w := range g.workers {
		w.post.Store(spec)
	}
	for k := 1; k <= slices; k++ {
		time.Sleep(time.Duration(k)*sliceLen - (g.since() - spec.open))
		atSlice(k == slices)
	}
	for _, w := range g.workers {
		w.post.Store(nil)
	}
	deadline := g.since() + 10*time.Second
	for _, w := range g.workers {
		for w.seen.Load() != nil {
			if g.since() > deadline {
				return errors.New("a worker completed nothing for 10 s after the window")
			}
			time.Sleep(50 * time.Microsecond)
		}
		if w.recWin != spec {
			return errors.New("a worker completed nothing during the window")
		}
	}
	return nil
}

// halt stops the lanes and returns when each has parked with nothing
// outstanding.
func (g *generator) halt() {
	g.stop.Store(true)
	g.active.Wait()
}
