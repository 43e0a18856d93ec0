package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of ds (0 for none).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func millis(d time.Duration) float64 { return d.Seconds() * 1e3 }

// usage is a point-in-time reading of process resource counters.
type usage struct {
	cpu   float64 // user+system seconds
	alloc float64 // cumulative heap allocation, bytes
	gcs   float64 // completed GC cycles
	pause float64 // cumulative GC stop-the-world pause, seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func sample() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	metrics.Read(runtimeSamples)
	u := usage{
		cpu:   tv(ru.Utime) + tv(ru.Stime),
		alloc: float64(runtimeSamples[0].Value.Uint64()),
		gcs:   float64(runtimeSamples[1].Value.Uint64()),
	}
	// The pause histogram has no exact sum: weight each bucket by its
	// lower bound (the first bucket's lower bound is -Inf, treat as 0).
	h := runtimeSamples[2].Value.Float64Histogram()
	for i, c := range h.Counts {
		lo := h.Buckets[i]
		if lo > 0 {
			u.pause += float64(c) * lo
		}
	}
	return u
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM) of
// this process, so peakRSS covers one pass. Where the kernel does not
// allow it, peakRSS reports the peak since process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: see above
}

// peakRSS returns the process's peak resident set size in bytes since
// the last resetPeakRSS.
func peakRSS() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			f := strings.Fields(line) // "VmHWM:", value, "kB"
			if len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // see sample
	return float64(ru.Maxrss) * 1024                // Linux reports KiB
}

// host identifies the machine a result was measured on, so results are
// only compared like for like.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
}

func fingerprint() host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
	}
}

// cpuModel reads the CPU model name the kernel reports; "unknown" where
// there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
