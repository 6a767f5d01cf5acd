package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50}, {0, 15},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	// Unsorted input, left unmodified; no interpolation between samples.
	ys := []float64{3, 1, 2, 4}
	if got := median(ys); got != 2 {
		t.Errorf("median(%v) = %v, want 2", ys, got)
	}
	if ys[0] != 3 {
		t.Errorf("percentile sorted its input in place: %v", ys)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample p90 = %v, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("empty p50 = %v, want NaN", got)
	}
}

func TestPercentileTail(t *testing.T) {
	// 100 samples 1..100: p90 is the 90th, leaving ten samples beyond it.
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}
