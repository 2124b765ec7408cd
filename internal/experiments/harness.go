// Package experiments regenerates every figure of the paper's
// evaluation: the §3 simulation sweeps (request size, disk cache
// geometry, disk and controller prefetching), the Figure 2 Linux
// scheduler comparison, and the §5 experiments with the host-level
// stream scheduler (read-ahead, memory size, multi-disk, dispatch/
// staging split, response time).
//
// Each experiment returns a Result whose rows and series mirror the
// axes of the corresponding paper figure. Absolute values come from
// the simulator; EXPERIMENTS.md records the paper-vs-measured shapes.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"seqstream/internal/blockdev"
	"seqstream/internal/controller"
	"seqstream/internal/core"
	"seqstream/internal/iostack"
	"seqstream/internal/metrics"
	"seqstream/internal/obs"
	"seqstream/internal/sim"
)

// Result is one reproduced figure: a labeled table of series.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// Series labels the columns; Rows holds one x-value per entry.
	Series []string
	Rows   []Row
}

// Row is one x-axis point across all series.
type Row struct {
	X      string
	Values []float64
}

// Table renders the result as an aligned text table, one row per
// x-value, matching the paper's figure axes. Each column is at least
// 16 characters wide and one wider than its widest cell, so adjacent
// labels never run together.
func (r Result) Table() string {
	cell := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
	var widths []int // column 0 is the x column
	widen := func(col int, s string) {
		for len(widths) <= col {
			widths = append(widths, 16)
		}
		widths[col] = max(widths[col], utf8.RuneCountInString(s)+1)
	}
	widen(0, r.XLabel)
	for i, s := range r.Series {
		widen(i+1, s)
	}
	for _, row := range r.Rows {
		widen(0, row.X)
		for i, v := range row.Values {
			widen(i+1, cell(v))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "%s (x) vs %s (y)\n", r.XLabel, r.YLabel)
	fmt.Fprintf(&b, "%-*s", widths[0], r.XLabel)
	for i, s := range r.Series {
		fmt.Fprintf(&b, "%*s", widths[i+1], s)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0], row.X)
		for i, v := range row.Values {
			fmt.Fprintf(&b, "%*s", widths[i+1], cell(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteCSV exports the result as CSV: a header of the x-label and
// series names, one row per x-value.
func (r Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{r.XLabel}, r.Series...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	for _, row := range r.Rows {
		rec := make([]string, 0, len(row.Values)+1)
		rec = append(rec, row.X)
		for _, v := range row.Values {
			rec = append(rec, strconv.FormatFloat(v, 'f', 3, 64))
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// Value returns the cell for (x, series), and whether it exists.
func (r Result) Value(x, series string) (float64, bool) {
	col := -1
	for i, s := range r.Series {
		if s == series {
			col = i
			break
		}
	}
	if col < 0 {
		return 0, false
	}
	for _, row := range r.Rows {
		if row.X == x && col < len(row.Values) {
			return row.Values[col], true
		}
	}
	return 0, false
}

// Options tune experiment scale. The zero value uses full-fidelity
// durations; Quick() shrinks them for tests and CI.
type Options struct {
	// Warmup is ignored for measurement (detection, cache fill).
	Warmup time.Duration
	// Measure is the steady-state window.
	Measure time.Duration
	// Seed drives every stochastic component.
	Seed uint64
	// Registry, when non-nil, receives the instrumentation of every
	// cell the experiment runs: core scheduler and controller counters
	// accumulate across cells, while the sim gauges rebind to each
	// cell's engine. Snapshot it after Run returns — the same metric
	// families streamnode serves live on /metrics.
	Registry *obs.Registry
}

func (o Options) withDefaults(warm, measure time.Duration) Options {
	if o.Warmup == 0 {
		o.Warmup = warm
	}
	if o.Measure == 0 {
		o.Measure = measure
	}
	return o
}

// Quick returns options scaled for fast runs (unit tests, smoke
// checks): shapes remain, absolute noise grows.
func Quick() Options {
	return Options{Warmup: 2 * time.Second, Measure: 4 * time.Second, Seed: 1}
}

// Placement locates one stream.
type Placement struct {
	Disk  int
	Start int64
}

// PlacePerDisk spreads perDisk streams uniformly over each of ndisks
// drives (the paper's placement: disksize/#streams apart).
func PlacePerDisk(ndisks, perDisk int, capacity int64) []Placement {
	spacing := capacity / int64(perDisk)
	spacing -= spacing % 512
	out := make([]Placement, 0, ndisks*perDisk)
	for d := 0; d < ndisks; d++ {
		for s := 0; s < perDisk; s++ {
			out = append(out, Placement{Disk: d, Start: int64(s) * spacing})
		}
	}
	return out
}

// PlaceTotal spreads total streams round-robin across ndisks drives,
// each disk's share placed uniformly.
func PlaceTotal(ndisks, total int, capacity int64) []Placement {
	perDisk := (total + ndisks - 1) / ndisks
	spacing := capacity / int64(perDisk)
	spacing -= spacing % 512
	out := make([]Placement, 0, total)
	for i := 0; i < total; i++ {
		d := i % ndisks
		slot := i / ndisks
		out = append(out, Placement{Disk: d, Start: int64(slot) * spacing})
	}
	return out
}

// Sample is one measured cell.
type Sample struct {
	MBps    float64
	MeanLat time.Duration
	P50Lat  time.Duration
	P99Lat  time.Duration
}

// submitFunc issues one read; done runs once when it has completed.
type submitFunc func(disk int, off, length int64, done func()) error

// measureRun drives synchronous sequential streams against submit and
// measures delivered bytes and response times inside the
// [warmup, warmup+measure] window of virtual time.
func measureRun(eng *sim.Engine, submit submitFunc, placements []Placement,
	reqSize int64, outstanding int, opts Options) (Sample, error) {
	clock := blockdev.NewSimClock(eng)
	warmEnd := opts.Warmup
	measureEnd := opts.Warmup + opts.Measure

	var bytes int64
	var lat metrics.LatencySummary

	next := make([]int64, len(placements))
	for i, p := range placements {
		next[i] = p.Start
	}
	stopped := false
	var issue func(i int)
	issue = func(i int) {
		if stopped {
			return
		}
		p := placements[i]
		for attempt := 0; attempt < 2; attempt++ {
			off := next[i]
			next[i] += reqSize
			start := clock.Now()
			err := submit(p.Disk, off, reqSize, func() {
				end := clock.Now()
				if end >= warmEnd && end <= measureEnd {
					bytes += reqSize
					lat.Observe(end - start)
				}
				issue(i)
			})
			if err == nil {
				return
			}
			// The stream ran off the disk: wrap to its start region
			// and retry once; a second failure drops the stream.
			next[i] = p.Start
		}
	}
	if outstanding <= 0 {
		outstanding = 1
	}
	for i := range placements {
		for k := 0; k < outstanding; k++ {
			issue(i)
		}
	}
	if err := eng.RunUntil(measureEnd); err != nil {
		return Sample{}, err
	}
	stopped = true
	s := Sample{MBps: float64(bytes) / opts.Measure.Seconds() / 1e6}
	if lat.Count() > 0 {
		s.MeanLat = lat.Mean()
		s.P50Lat = lat.Quantile(0.5)
		s.P99Lat = lat.Quantile(0.99)
	}
	return s, nil
}

// newHost builds a simulated host or fails the experiment.
func newHost(eng *sim.Engine, cfg iostack.Config) (*iostack.Host, error) {
	host, err := iostack.New(eng, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return host, nil
}

// instrumentHost attaches the options' registry (if any) to a cell's
// engine and controllers. Controller counters aggregate across cells
// and controllers; the sim gauges track the newest engine.
func instrumentHost(opts Options, eng *sim.Engine, host *iostack.Host) {
	if opts.Registry == nil {
		return
	}
	eng.Instrument(opts.Registry)
	ctrlObs := controller.NewObs(opts.Registry)
	for i := 0; i < host.Controllers(); i++ {
		host.Controller(i).SetObs(ctrlObs)
	}
}

// directSubmit issues requests straight to the host (no stream
// scheduler) — the paper's baseline path.
func directSubmit(host *iostack.Host) submitFunc {
	return func(disk int, off, length int64, done func()) error {
		return host.ReadAt(disk, off, length, func(iostack.Result) { done() })
	}
}

// coreSubmit routes requests through the stream scheduler.
func coreSubmit(srv *core.Server) submitFunc {
	return func(disk int, off, length int64, done func()) error {
		return srv.Submit(core.Request{Disk: disk, Offset: off, Length: length,
			Done: func(core.Response) { done() }})
	}
}

// runDirect measures the baseline path on a host configuration.
func runDirect(stackCfg iostack.Config, placements []Placement, reqSize int64, opts Options) (Sample, error) {
	eng := sim.NewEngine()
	host, err := newHost(eng, stackCfg)
	if err != nil {
		return Sample{}, err
	}
	instrumentHost(opts, eng, host)
	return measureRun(eng, directSubmit(host), placements, reqSize, 1, opts)
}

// runCore measures the stream scheduler on a host configuration.
func runCore(stackCfg iostack.Config, coreCfg core.Config, placements []Placement,
	reqSize int64, opts Options) (Sample, error) {
	eng := sim.NewEngine()
	host, err := newHost(eng, stackCfg)
	if err != nil {
		return Sample{}, err
	}
	dev, err := blockdev.NewSimDevice(host)
	if err != nil {
		return Sample{}, err
	}
	instrumentHost(opts, eng, host)
	if opts.Registry != nil && coreCfg.Obs == nil {
		coreCfg.Obs = core.NewObs(opts.Registry, nil)
	}
	srv, err := core.NewServer(dev, blockdev.NewSimClock(eng), coreCfg)
	if err != nil {
		return Sample{}, err
	}
	defer srv.Close()
	return measureRun(eng, coreSubmit(srv), placements, reqSize, 1, opts)
}
