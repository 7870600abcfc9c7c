package main

import (
	"math"
	"testing"
)

// The expected values are what Python's statistics.quantiles(xs, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-9 {
		t.Errorf("spread = %v, want 1 (5.5 over 5.5)", s)
	}
	if s := spread([]float64{7}); s != 0 {
		t.Errorf("spread of one value = %v, want 0", s)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if p := percentile(sorted, 0.99); p != 99 {
		t.Errorf("p99 = %v", p)
	}
	if p := percentile(sorted, 0.50); p != 50 {
		t.Errorf("p50 = %v", p)
	}
}
