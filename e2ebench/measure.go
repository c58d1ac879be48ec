package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"syscall"
	"time"
)

// Run shape shared by every workload.
const (
	// subWindows splits the measured window; rates, percentiles and CPU
	// per session are computed per sub-window and the median is
	// reported, so one stall on a shared host moves one sub-window, not
	// the result.
	subWindows = 10
	// warmup runs the loop unmeasured after set-up so connections,
	// caches and the heap reach steady state before timing.
	warmup = time.Second
	// grantDeadline fails a session still ungranted after this long.
	grantDeadline = 5 * time.Second
)

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB is the process's current resident set in MiB, from
// /proc/self/statm (0 where unavailable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

// rssEvery is how often the measured window samples the resident set.
const rssEvery = 50 * time.Millisecond

// Go runtime metrics read at window boundaries.
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmSchedLat   = "/sched/latencies:seconds"
	rmGoroutines = "/sched/goroutines:goroutines"
)

// rtSample is one snapshot of the Go runtime metrics.
type rtSample struct {
	allocBytes uint64
	gcCycles   uint64
	goroutines uint64
	schedLat   *metrics.Float64Histogram
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: rmAllocBytes}, {Name: rmGCCycles}, {Name: rmGoroutines}, {Name: rmSchedLat}}
	metrics.Read(s)
	out := rtSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		goroutines: s[2].Value.Uint64(),
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		out.schedLat = s[3].Value.Float64Histogram()
	}
	return out
}

// schedP99 is the 99th percentile of scheduling latency (time a ready
// goroutine waited to run) between two samples, in seconds,
// interpolated linearly inside its histogram bucket.
func schedP99(a, b rtSample) float64 {
	if a.schedLat == nil || b.schedLat == nil || len(a.schedLat.Counts) != len(b.schedLat.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(b.schedLat.Counts))
	for i := range delta {
		delta[i] = b.schedLat.Counts[i] - a.schedLat.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := 0.99 * float64(total)
	var seen float64
	for i, c := range delta {
		if c == 0 || seen+float64(c) < want {
			seen += float64(c)
			continue
		}
		lo, hi := b.schedLat.Buckets[i], b.schedLat.Buckets[i+1]
		switch {
		case math.IsInf(hi, 1):
			return lo
		case math.IsInf(lo, -1):
			return hi
		}
		return lo + (hi-lo)*(want-seen)/float64(c)
	}
	return 0
}

// boundary is the state captured at one sub-window edge.
type boundary struct {
	at  time.Duration // since the run's time origin
	cpu time.Duration
	rt  rtSample
}

func captureBoundary(t0 time.Time) boundary {
	return boundary{at: time.Since(t0), cpu: cpuTime(), rt: readRuntime()}
}

// measureWindow sleeps through the measured window [start, start+window)
// (offsets from t0), capturing a boundary at every sub-window edge and
// the highest resident set sampled in every sub-window. The median of
// those peaks is steadier than the one process-wide peak, which a
// single late GC cycle can move. at(k), when non-nil, runs right after
// edge k is captured.
func measureWindow(t0 time.Time, start, window time.Duration, at func(k int)) ([]boundary, []float64) {
	var (
		bounds []boundary
		peaks  []float64
	)
	sleepUntil(t0, start)
	for k := 0; ; k++ {
		bounds = append(bounds, captureBoundary(t0))
		if at != nil {
			at(k)
		}
		if k == subWindows {
			return bounds, peaks
		}
		next := start + window*time.Duration(k+1)/subWindows
		peak := rssMB()
		for time.Since(t0) < next {
			sleepUntil(t0, min(time.Since(t0)+rssEvery, next))
			peak = max(peak, rssMB())
		}
		peaks = append(peaks, peak)
	}
}

// sleepUntil sleeps until t0+at.
func sleepUntil(t0 time.Time, at time.Duration) {
	if d := time.Until(t0.Add(at)); d > 0 {
		time.Sleep(d)
	}
}

// windowStats holds the per-sub-window figures whose medians become the
// end-to-end metrics.
type windowStats struct {
	rate, p50, p99, cpuPer []float64
	n                      int
}

// addWindow records one sub-window given its grant latencies (ms).
func (ws *windowStats) addWindow(lats []float64, from, to boundary) error {
	secs := (to.at - from.at).Seconds()
	p99, err := P99(lats)
	if err != nil {
		return fmt.Errorf("sub-window %v-%v: %w", from.at, to.at, err)
	}
	ws.rate = append(ws.rate, float64(len(lats))/secs)
	ws.p50 = append(ws.p50, Median(lats))
	ws.p99 = append(ws.p99, p99)
	ws.cpuPer = append(ws.cpuPer, float64((to.cpu-from.cpu).Microseconds())/float64(len(lats)))
	ws.n += len(lats)
	return nil
}

// report adds the end-to-end metrics shared by every workload.
func (ws *windowStats) report(r *result, all, setups, rssPeaks []float64) {
	note := fmt.Sprintf("median of %d sub-windows", len(ws.rate))
	d := Summarize(all)
	r.add("sessions_per_s", "1/s", Median(ws.rate), ws.n, note)
	r.add("grant_p50_ms", "ms", Median(ws.p50), ws.n, note+"; whole window "+d.String())
	r.add("grant_p99_ms", "ms", Median(ws.p99), ws.n, note)
	r.add("cpu_us_per_session", "us", Median(ws.cpuPer), ws.n, note+"; process user+sys rusage")
	r.add("mem_peak_mb", "MB", Median(rssPeaks), len(rssPeaks), note+" of the resident set sampled every "+rssEvery.String())
	r.add("setup_s", "s", Median(setups), len(setups), "median of set-ups: construction until every process was granted once")
}
