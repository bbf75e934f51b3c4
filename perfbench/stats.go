package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile for
// the percentile to be supported by the sample.
const minBeyond = 10

// rank returns the 1-based nearest rank of the p-quantile in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-quantile of xs (0 for no samples).
// xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// supported reports whether at least minBeyond of n samples lie above the
// nearest-rank p-quantile.
func supported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// windowSize is the smallest sample that supports p.
func windowSize(p float64) int {
	n := 1
	for !supported(n, p) {
		n++
	}
	return n
}

// maxWindows bounds how many consecutive windows windowed cuts a sample
// into: few enough that each window spans a fifth of the run or more.
const maxWindows = 5

// windowed estimates a quantile robustly: xs (in completion order) is cut
// into up to maxWindows consecutive windows, each large enough to support
// p, and the median of the windows' p-quantiles is returned, so a slow
// spell on a shared host that covers less than half the run does not move
// the estimate. It also returns the number of windows; with fewer samples
// than one supported window it returns the plain quantile and 0 windows,
// which the report marks as unsupported.
func windowed(xs []float64, p float64) (float64, int) {
	n := min(len(xs)/windowSize(p), maxWindows)
	if n == 0 {
		return percentile(xs, p), 0
	}
	per := make([]float64, n)
	size := len(xs) / n
	for i := range per {
		end := (i + 1) * size
		if i == n-1 {
			end = len(xs)
		}
		per[i] = percentile(xs[i*size:end], p)
	}
	return median(per), n
}

// median returns the median of xs (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
