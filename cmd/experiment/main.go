// Command experiment regenerates the paper's figures on the simulated
// I/O hierarchy and prints the series as text tables. The real
// node's performance is measured by the repository benchmark
// (benchmark/), not here.
//
// Usage:
//
//	experiment -list
//	experiment -fig fig10
//	experiment -all -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"seqstream/internal/experiments"
	"seqstream/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "", "experiment id to run (e.g. fig10); see -list")
		all     = fs.Bool("all", false, "run every registered experiment")
		list    = fs.Bool("list", false, "list registered experiments")
		quick   = fs.Bool("quick", false, "short measurement windows (noisier, much faster)")
		warmup  = fs.Duration("warmup", 0, "override warmup window")
		measure = fs.Duration("measure", 0, "override measurement window")
		seed    = fs.Uint64("seed", 1, "simulation seed")
		csvDir  = fs.String("csv", "", "also write <dir>/<id>.csv per experiment")
		metrics = fs.String("metrics", "", "emit a Prometheus-text registry snapshot per experiment: '-' for stdout, else <dir>/<id>.prom")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.List() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return nil
	}

	opts := experiments.Options{Seed: *seed}
	if *quick {
		opts = experiments.Quick()
		opts.Seed = *seed
	}
	if *warmup != 0 {
		opts.Warmup = *warmup
	}
	if *measure != 0 {
		opts.Measure = *measure
	}

	var entries []experiments.Entry
	switch {
	case *all:
		entries = experiments.List()
	case *fig != "":
		e, err := experiments.Lookup(*fig)
		if err != nil {
			return err
		}
		entries = []experiments.Entry{e}
	default:
		return fmt.Errorf("experiment: pass -fig <id>, -all, or -list")
	}

	for _, e := range entries {
		// Each experiment gets a fresh registry so its snapshot is not
		// polluted by earlier figures; cells within one experiment
		// share it (the counters accumulate, as on a live node).
		if *metrics != "" {
			opts.Registry = obs.NewRegistry()
		}
		started := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(res.Table())
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(started).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, res); err != nil {
				return err
			}
		}
		if *metrics != "" {
			if err := writeMetrics(*metrics, res.ID, opts.Registry); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeMetrics dumps one experiment's registry snapshot: to stdout for
// dest "-", else to <dest>/<id>.prom.
func writeMetrics(dest, id string, reg *obs.Registry) error {
	if dest == "-" {
		fmt.Printf("# registry snapshot: %s\n", id)
		return reg.WritePrometheus(os.Stdout)
	}
	if err := os.MkdirAll(dest, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dest, id+".prom"))
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.WritePrometheus(f)
}

func writeCSV(dir string, res experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, res.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return res.WriteCSV(f)
}
