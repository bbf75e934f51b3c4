package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.01, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.99, 5}, {1, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 0.99, false}, // rank 990: 9 beyond
		{1000, 0.99, true}, // rank 990: 10 beyond
		{199, 0.95, false},
		{200, 0.95, true},
		{20, 0.5, true},
		{19, 0.5, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, p := range []float64{0.5, 0.95, 0.99} {
		if w := windowSize(p); !supported(w, p) || supported(w-1, p) {
			t.Errorf("windowSize(%v) = %d is not the smallest supported sample", p, w)
		}
	}
}

func TestWindowedMedianOfWindows(t *testing.T) {
	// Three windows of 1000; one holds a stall that lifts its p99.
	var xs []float64
	for w := 0; w < 3; w++ {
		for i := 0; i < 1000; i++ {
			v := float64(i % 100)
			if w == 1 && i >= 900 {
				v = 1000
			}
			xs = append(xs, v)
		}
	}
	got, n := windowed(xs, 0.99)
	// Each window holds every value 0..99 ten times: rank 990 is 98.
	if n != 3 || got != 98 {
		t.Errorf("tailPercentile = %v over %d windows, want 98 over 3", got, n)
	}
	if _, n := windowed(xs[:999], 0.99); n != 0 {
		t.Errorf("999 samples gave %d windows, want 0 (unsupported)", n)
	}
	// Plenty of samples still make at most maxWindows windows: a slow
	// first fifth of the run does not move the median.
	var ys []float64
	for i := 0; i < 10000; i++ {
		v := 1.0
		if i < 2000 {
			v = 50
		}
		ys = append(ys, v)
	}
	if got, n := windowed(ys, 0.5); n != maxWindows || got != 1 {
		t.Errorf("windowed p50 = %v over %d windows, want 1 over %d", got, n, maxWindows)
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if m := mean([]float64{1, 2, 3, 6}); math.Abs(m-3) > 1e-12 {
		t.Errorf("mean = %v", m)
	}
}
