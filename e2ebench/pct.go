package main

import (
	"fmt"
	"math"
	"sort"
)

// Dist summarises a latency sample: the median and the highest
// percentile of the ladder that still has at least ten samples beyond
// it, always with the sample count. A tail read from fewer samples is
// one or two outliers, not a percentile.
type Dist struct {
	N     int
	P50   float64
	TailQ float64 // 0 when N is too small for any tail
	Tail  float64
}

// tailLadder is tried from the top: p99.9 needs 10000 samples, p99
// needs 1000, p90 needs 100.
var tailLadder = []float64{0.999, 0.99, 0.9}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := rank(len(sorted), q) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond is the number of samples above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// rank is the 1-based nearest rank of the q-quantile among n samples;
// the epsilon keeps 0.99*1000 from rounding up to rank 991.
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// Summarize computes the Dist of xs (xs is not modified).
func Summarize(xs []float64) Dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := Dist{N: len(s), P50: quantile(s, 0.5)}
	for _, q := range tailLadder {
		if beyond(len(s), q) >= minBeyond {
			d.TailQ, d.Tail = q, quantile(s, q)
			break
		}
	}
	return d
}

// P99 returns the 99th percentile of xs, refusing samples too small to
// leave ten values above it (fewer than 1000).
func P99(xs []float64) (float64, error) {
	if beyond(len(xs), 0.99) < minBeyond {
		return 0, fmt.Errorf("p99 needs at least 1000 samples, have %d", len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.99), nil
}

// Median returns the median of xs (0 for an empty sample).
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// String renders the summary with its sample count.
func (d Dist) String() string {
	if d.TailQ == 0 {
		return fmt.Sprintf("p50=%.4g n=%d", d.P50, d.N)
	}
	return fmt.Sprintf("p50=%.4g p%s=%.4g n=%d", d.P50, pctLabel(d.TailQ), d.Tail, d.N)
}

// pctLabel renders 0.999 as "99.9" and 0.99 as "99".
func pctLabel(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1000)/10)
}
