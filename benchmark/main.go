// Command benchmark is the stream node's one reproducible benchmark:
// six named workloads, the end-to-end metrics a user of the node sees,
// a per-layer budget, and a traced run. See README.md.
//
// With -workload it runs that workload once and prints one JSON object
// as its last line (the form BENCHMARK.json's command uses, through
// run.sh). Without it, it runs every workload -repeats times, each in
// a child process of its own, and prints the medians.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// runSeconds is the measured window BENCHMARK.json asks the driver for.
const runSeconds = 10

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run this workload once and print its JSON result; empty runs them all")
		seed    = fs.Uint64("seed", 1, "seed for every generated offset and simulated disk")
		seconds = fs.Float64("seconds", runSeconds, "measured window per run, in seconds")
		trace   = fs.Int("trace", 0, "1 runs traced: spans to -out, per-layer metrics instead of end-to-end ones")
		outDir  = fs.String("out", "benchmark/out", "directory for trace-<workload>.jsonl")
		repeats = fs.Int("repeats", 3, "runs per workload when running them all")
		agree   = fs.Bool("agree", false, "run two full sets and fail unless every end-to-end median agrees within its bound")
		descr   = fs.Bool("describe", false, "print BENCHMARK.json as this command declares it, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || *repeats < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("bad flag value")
	}
	if *descr {
		return describe(os.Stdout)
	}
	o := runOpts{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, outDir: *outDir}
	if *name == "" {
		return runAll(o, *seconds, *repeats, *agree)
	}
	spec := findWorkload(*name)
	if spec == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	// The load shape is fixed at two processors: two generator
	// goroutines or connections, never more than the machine has.
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}
	out, err := runOne(spec, o)
	if err != nil {
		return err
	}
	line, err := resultLine(out, o.trace)
	if err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", p)
	}
	fmt.Println(line)
	if len(out.problems) > 0 || out.failed > 0 {
		return fmt.Errorf("%s: outputs are not correct", spec.name)
	}
	return nil
}

func runOne(spec *workload, o runOpts) (*outcome, error) {
	if spec.sim {
		return runSim(spec, o)
	}
	return runRealtime(spec, o)
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders an outcome with exactly the declared metrics of
// its mode: the end-to-end ones, or with trace the per-layer ones (a
// row a workload has nothing to say about reads 0).
func resultLine(out *outcome, trace bool) (string, error) {
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	r := result{Correct: len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := out.metrics[d.name]
		if !ok && !trace {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if !trace && !(v > 0) {
			return "", fmt.Errorf("metric %s = %v, want a positive measurement", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range out.metrics {
		if _, ok := r.Metrics[name]; !ok {
			return "", fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	b, err := json.Marshal(r)
	return string(b), err
}

// describe writes BENCHMARK.json from the tables the command itself
// reports by, so the two cannot drift (a test compares them).
func describe(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, s := range workloads {
		doc.Workloads = append(doc.Workloads, wl{s.name, s.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, pl{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
