package main

import (
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// recorder collects what one connection (or the in-process loop)
// observed: every decision's latency, how late the open loop sent, and
// the outcome counts. Each goroutine owns one; they merge at the end.
type recorder struct {
	samples   []float64 // ms per decided request of the pass, from when it was due
	late      []float64 // ms each open-loop call was sent after its due time
	attempted int64     // events offered
	failed    int64     // events not decided "ok"
	failures  []string  // the first few failed reply lines
	calls     int64     // HTTP calls made (re-sends included)
	retries   int64     // shed lines re-sent
	callBusy  time.Duration
}

func (r *recorder) merge(o *recorder) {
	r.samples = append(r.samples, o.samples...)
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
	r.calls += o.calls
	r.retries += o.retries
	r.callBusy += o.callBusy
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, over every sample; xs is sorted in place. Zero for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	return quantile(slices.Clone(xs), 0.5)
}

// runtimeStats is a reading of the Go runtime's cumulative counters.
type runtimeStats struct {
	allocs   uint64  // heap objects allocated
	gcCPU    float64 // CPU seconds spent in the garbage collector
	totalCPU float64 // CPU seconds available to the process (GOMAXPROCS × wall)
	gcCycles uint64
	liveHeap uint64 // bytes marked live by the last GC
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/live:bytes"},
}

func readRuntime() runtimeStats {
	s := slices.Clone(runtimeSamples)
	metrics.Read(s)
	return runtimeStats{allocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64(),
		gcCycles: s[3].Value.Uint64(), liveHeap: s[4].Value.Uint64()}
}

// resetPeakRSS restarts the kernel's peak resident set mark (VmHWM) at
// the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set in MB since the
// last resetPeakRSS: VmHWM of /proc/self/status, or the lifetime peak
// from getrusage where that file cannot be read.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
