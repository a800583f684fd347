package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stamp/internal/metrics"
)

// samples is a set of durations in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// quantileMs returns the q-quantile in milliseconds.
func (s samples) quantileMs(q float64) float64 {
	ms := make([]float64, len(s))
	for i, v := range s {
		ms[i] = float64(v) / 1e6
	}
	return quantile(ms, q)
}

// sumMs returns the total in milliseconds.
func (s samples) sumMs() float64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return float64(t) / 1e6
}

// quantile is the nearest-rank q-quantile of xs, or 0 when xs is empty
// (a layer the workload does not exercise reads 0).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.NewCDF(xs).Quantile(q)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the user plus system CPU time the process has used.
// Time the hypervisor steals from the guest's vCPUs is not charged to
// it, so a per-operation CPU cost holds still while the wall-clock rate
// moves with the host's load.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLiveMB collects garbage and returns the heap still reachable, in
// MB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
