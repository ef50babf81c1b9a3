package main

import (
	"math"
	"strconv"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// percentile is the nearest-rank p-th percentile (0–100) of values, or 0
// for no values, so a metric a workload does not exercise reads 0.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return metrics.Percentile(values, p/100)
}

func median(values []float64) float64 { return percentile(values, 50) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// getrusage(RUSAGE_SELF) fails only on a bad address.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// clockCost is the median cost of one timed empty region, subtracted
// from sampled per-packet timings whose payload is only tens of ns.
func clockCost() time.Duration {
	const n = 4096
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
