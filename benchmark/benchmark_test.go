package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// The wire_disk smoke mostly sleeps (device-bound, then seconds of
// quiesce); let the CPU-bound smokes run beside it on a 2-CPU machine.
func TestMain(m *testing.M) {
	if err := flag.Set("test.parallel", "4"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func smokeOpts(t *testing.T, trace bool) runOpts {
	return runOpts{seed: 7, window: 200 * time.Millisecond, trace: trace, outDir: t.TempDir(),
		setups: 1, probeIters: 200}
}

// Every workload runs a 200 ms window, passes its own checks and
// reports every end-to-end metric.
func TestSmokeEveryWorkload(t *testing.T) {
	t.Parallel()
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			out, err := runOne(spec, smokeOpts(t, false))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range out.problems {
				t.Error("check failed:", p)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
			}
			if _, err := resultLine(out, false); err != nil {
				t.Error(err)
			}
		})
	}
}

// Traced runs of a wire, an in-process and the simulated workload
// between them report every declared per-layer metric, nothing
// undeclared, and leave parseable span files.
func TestTracedRuns(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for _, name := range []string{"wire_payload", "core_mixed", "sim_streams"} {
		o := smokeOpts(t, true)
		out, err := runOne(findWorkload(name), o)
		if err != nil {
			t.Fatal(name, err)
		}
		for _, p := range out.problems {
			t.Error(name, "check failed:", p)
		}
		if _, err := resultLine(out, true); err != nil {
			t.Error(name, err)
		}
		for k := range out.metrics {
			seen[k] = true
		}
		if name == "sim_streams" {
			continue
		}
		names := map[string]int{}
		for _, s := range readSpans(t, filepath.Join(o.outDir, "trace-"+name+".jsonl")) {
			names[s.Name]++
		}
		if names["load.request"] == 0 || names[findWorkload(name).callSpan()] == 0 {
			t.Errorf("%s: spans by name %v", name, names)
		}
	}
	for _, d := range perLayer {
		if !seen[d.name] {
			t.Errorf("per-layer metric %s is declared but no traced run reported it", d.name)
		}
	}
}

// A traced run stamps the generator's spans and the device's on one
// clock: no traced request may end before a read covering its offset
// has. The workload is wire_disk with fewer streams (40 still outnumber
// D = 32), so that stopping them strands one round of read-ahead for
// the node's one-second collector instead of three.
func TestTracedRequestsEndAfterTheirRead(t *testing.T) {
	t.Parallel()
	spec := *findWorkload("wire_disk")
	spec.lanes = lanes(20, 0, 0)
	o := smokeOpts(t, true)
	out, err := runOne(&spec, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range out.problems {
		t.Error("check failed:", p)
	}
	spans := readSpans(t, filepath.Join(o.outDir, "trace-wire_disk.jsonl"))
	var requests, reads []span
	for _, s := range spans {
		switch s.Name {
		case "load.request":
			requests = append(requests, s)
		case "blockdev.read":
			reads = append(reads, s)
		}
	}
	if len(requests) == 0 || len(reads) == 0 {
		t.Fatalf("%d traced requests, %d reads: nothing to check", len(requests), len(reads))
	}
	for _, q := range requests {
		covered := false
		for _, r := range reads {
			if r.Disk == q.Disk && r.Off <= q.Off && q.Off < r.Off+r.Len && r.End <= q.End {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("request %d (disk %d, offset %d) ended at %d ns, before any read covering it", q.ID, q.Disk, q.Off, q.End)
		}
	}
}

// readSpans parses a span file, failing the test on a malformed line
// or a span whose interval or self time is impossible.
func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: bad span line %q: %v", path, sc.Text(), err)
		}
		if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Errorf("%s: span %+v has a bad interval or self time", path, s)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// BENCHMARK.json declares exactly what the command emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []decl   `json:"workloads"`
		EndToEnd   []decl   `json:"end_to_end"`
		PerLayer   []decl   `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	check := func(kind string, got []decl, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared in BENCHMARK.json, %d in the command", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s %s: bound differs from the command's %v", kind, g.Name, w.bound)
			}
			if bounded && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, g.Name, *g.Bound)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || used[g.Name] {
				t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, g.Name, g.Unit)
			}
			used[g.Name] = true
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the command", len(file.Workloads), len(workloads))
	}
	for i, g := range file.Workloads {
		if w := workloads[i]; g.Name != w.name || g.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the command %q / %q", i, g.Name, g.Why, w.name, w.why)
		}
		if !nameRE.MatchString(g.Name) || used[g.Name] || len(g.Why) > 200 || strings.Contains(g.Why, "\n") {
			t.Errorf("workload %s: bad or repeated name, or why is not one line of at most 200 characters", g.Name)
		}
		used[g.Name] = true
	}
	hasSetup := false
	for _, d := range file.EndToEnd {
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if file.RunSeconds < 5 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
	// 4 + 22 runs per workload, each within the contract's total.
	if runs := 4 + 22*len(file.Workloads); runs*25 > 3420 {
		t.Errorf("%d runs leave under 25 s each of the 3420 s the contract allows", runs)
	}
}

// node.go is the package's whole API surface on the program under
// test.
func TestOnlyNodeImportsTheProgram(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for path, f := range pkg.Files {
			for _, imp := range f.Imports {
				if strings.Contains(imp.Path.Value, "seqstream/internal/") && filepath.Base(path) != "node.go" {
					t.Errorf("%s imports %s; only node.go may", path, imp.Path.Value)
				}
			}
		}
	}
}

func TestQuantiles(t *testing.T) {
	v := make([]uint32, 1000)
	for i := range v {
		v[i] = uint32(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want uint32
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := quantile(v, c.p); got != c.want {
			t.Errorf("quantile(1..1000, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if quantile([]uint32{}, 0.5) != 0 || quantile([]uint32{42}, 0.99) != 42 {
		t.Error("quantile of empty or single-element slice")
	}
	// A percentile is used only when ten samples lie beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {10000, 0.999, true}, {9999, 0.999, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := tailPercentile(5000, 0.9, 0.99, 0.999); got != 0.99 {
		t.Errorf("tailPercentile(5000) = %v, want 0.99", got)
	}
	if got := tailPercentile(50, 0.9, 0.99); got != 0.5 {
		t.Errorf("tailPercentile(50) = %v, want the median", got)
	}
	if got := median([]float64{5, 1, 9, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
}

func TestSampleSlices(t *testing.T) {
	var s samples
	if err := s.alloc(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	defer s.free()
	s.begin(3 * time.Second)
	ends := []time.Duration{-time.Millisecond, 0, 999 * time.Millisecond, 2500 * time.Millisecond, 2999 * time.Millisecond, 3 * time.Second, 4 * time.Second}
	var kept []bool
	for i, e := range ends {
		kept = append(kept, s.add(e, time.Duration(i)))
	}
	want := []bool{false, true, true, true, true, false, false}
	for i := range want {
		if kept[i] != want[i] {
			t.Errorf("add(end=%v) kept=%v, want %v", ends[i], kept[i], want[i])
		}
	}
	var got [][]uint32
	for k := 0; k < s.slices; k++ {
		got = append(got, append([]uint32(nil), s.slice(k)...))
	}
	if len(got) != 3 || len(got[0]) != 2 || len(got[1]) != 0 || len(got[2]) != 2 || got[2][0] != 3 {
		t.Errorf("slices %v", got)
	}
	sort.Slice(got[0], func(i, j int) bool { return got[0][i] < got[0][j] })
	if got[0][0] != 1 || got[0][1] != 2 {
		t.Errorf("slice 0 = %v", got[0])
	}
	// A slice's rate runs from the previous slice's last completion to
	// its own: 2 in 0.999 s, none, then 2 in the 2 s up to 2.999 s.
	for k, want := range []float64{2 / 0.999, 0, 1} {
		if got := s.rate(k); math.Abs(got-want) > 1e-9 {
			t.Errorf("rate(%d) = %v, want %v", k, got, want)
		}
	}
}
