package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the p-quantile (nearest rank) of an ascending
// slice; 0 when it is empty.
func quantile[T ~uint32 | ~int64 | ~float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// supported reports whether n samples carry the p-quantile: at least
// ten samples must lie beyond it.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// tailPercentile is the highest of the candidates that n samples
// support, falling back to the median.
func tailPercentile(n int, candidates ...float64) float64 {
	best := 0.5
	for _, p := range candidates {
		if p > best && supported(n, p) {
			best = p
		}
	}
	return best
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTimes is the process's user and system CPU so far.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// peakRSSMB is the process's resident high-water mark (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found: %v", sc.Err())
}
