package main

// all.go is the command's own front end: every workload, each run in a
// fresh child process so CPU time, peak memory and heap state belong
// to that run alone, reported as medians over -repeats runs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// child runs one workload in a child process and parses its result.
func child(spec *workload, o runOpts, seconds float64, trace bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", spec.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t,
		"-out", o.outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", spec.name, err)
	}
	return &r, nil
}

// set is one full pass: per workload, the median of each end-to-end
// metric over the repeats, and the requests behind it.
type set struct {
	median   map[string]map[string]float64 // workload → metric → median
	requests map[string]int64              // workload → requests attempted, all repeats
}

func runSet(o runOpts, seconds float64, repeats int) (*set, error) {
	s := &set{median: map[string]map[string]float64{}, requests: map[string]int64{}}
	for _, spec := range workloads {
		values := map[string][]float64{}
		for i := 0; i < repeats; i++ {
			r, err := child(spec, o, seconds, false)
			if err != nil {
				return nil, err
			}
			s.requests[spec.name] += r.Attempted
			for name, v := range r.Metrics {
				values[name] = append(values[name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s run %d/%d done\n", spec.name, i+1, repeats)
		}
		s.median[spec.name] = map[string]float64{}
		for name, v := range values {
			s.median[spec.name][name] = median(v)
		}
	}
	return s, nil
}

func (s *set) print() {
	fmt.Printf("%-16s %-6s", "metric", "unit")
	for _, spec := range workloads {
		fmt.Printf(" %14s", spec.name)
	}
	fmt.Println()
	for _, d := range endToEnd {
		fmt.Printf("%-16s %-6s", d.name, d.unit)
		for _, spec := range workloads {
			fmt.Printf(" %14.4f", s.median[spec.name][d.name])
		}
		fmt.Println()
	}
	fmt.Printf("%-16s %-6s", "requests", "count")
	for _, spec := range workloads {
		fmt.Printf(" %14d", s.requests[spec.name])
	}
	fmt.Println()
}

func runAll(o runOpts, seconds float64, repeats int, agree bool) error {
	first, err := runSet(o, seconds, repeats)
	if err != nil {
		return err
	}
	fmt.Printf("median of %d runs, %g s window, seed %d\n", repeats, seconds, o.seed)
	first.print()

	if o.trace {
		for _, spec := range workloads {
			r, err := child(spec, o, seconds, true)
			if err != nil {
				return err
			}
			fmt.Printf("\ntraced run: %s\n", spec.name)
			for _, d := range perLayer {
				if v := r.Metrics[d.name].Value; v != 0 {
					fmt.Printf("  %-36s %16.4f %s\n", d.name, v, d.unit)
				}
			}
		}
	}
	if !agree {
		return nil
	}

	second, err := runSet(o, seconds, repeats)
	if err != nil {
		return err
	}
	fmt.Printf("\nsecond set\n")
	second.print()
	fmt.Printf("\nagreement: |second - first| / first, against each metric's bound\n")
	fmt.Printf("%-16s %6s", "metric", "bound")
	for _, spec := range workloads {
		fmt.Printf(" %14s", spec.name)
	}
	fmt.Println()
	bad := 0
	for _, d := range endToEnd {
		fmt.Printf("%-16s %6.2f", d.name, d.bound)
		for _, spec := range workloads {
			a, b := first.median[spec.name][d.name], second.median[spec.name][d.name]
			diff := math.Abs(b-a) / a
			mark := " "
			if diff > d.bound {
				mark = "!"
				bad++
			}
			fmt.Printf(" %13.4f%s", diff, mark)
		}
		fmt.Println()
	}
	if bad > 0 {
		return fmt.Errorf("%d cells disagree by more than their bound", bad)
	}
	fmt.Println("all cells agree")
	return nil
}
