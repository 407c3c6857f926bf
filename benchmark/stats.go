package main

import (
	"math"
	"sort"
)

// resolvedPct applies the sample-size rule every latency percentile in
// this harness obeys: a percentile is reported only where at least ten
// samples lie beyond it. With n samples the highest such percentile is
// 100·(n−10)/n; a target above it is lowered to it, and never below the
// median (which is reported whatever n is).
func resolvedPct(n int, target float64) float64 {
	if n <= 0 {
		return 50
	}
	highest := 100 * float64(n-10) / float64(n)
	return math.Max(50, math.Min(target, highest))
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// pctOf sorts a copy of xs and reads the target percentile as lowered
// by resolvedPct, returning the value and the percentile actually read.
func pctOf(xs []float64, target float64) (value, resolved float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	resolved = resolvedPct(len(s), target)
	return percentile(s, resolved), resolved
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
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

// quartileSpread is (Q3 − Q1) / median with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method), the measure
// the acceptance driver applies to repeated runs. Fewer than two values
// have no spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// blockSpread estimates how much a statistic moves within one run: the
// samples are cut into `blocks` consecutive windows, the statistic is
// taken on each, and the quartile spread of the window values is
// returned. A run too short to give every window two samples has no
// estimate (0).
func blockSpread(samples []float64, blocks int, stat func([]float64) float64) float64 {
	if len(samples) < 2*blocks {
		return 0
	}
	vals := make([]float64, blocks)
	for b := range vals {
		lo, hi := b*len(samples)/blocks, (b+1)*len(samples)/blocks
		vals[b] = stat(samples[lo:hi])
	}
	return quartileSpread(vals)
}
