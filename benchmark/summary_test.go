package main

import (
	"math"
	"testing"
)

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {60, 0}, {99, 0}, // p90 needs 100 samples to have 10 beyond it
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10_000, 99.9}, {99_999, 99.9},
		{100_000, 99.99},
	}
	for _, c := range cases {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[999-i] = float64(i + 1) // 1..1000, descending: summarize must sort
	}
	d := summarize(xs)
	if d.N != 1000 || d.Median != 500.5 || d.Q1 != 250.75 || d.Q3 != 750.25 {
		t.Errorf("summarize = %+v", d)
	}
	if d.TopPct != 99 || math.Abs(d.Top-990.01) > 1e-9 {
		t.Errorf("tail = p%g %g, want p99 990.01", d.TopPct, d.Top)
	}
	if d := summarize(nil); d != (Dist{}) {
		t.Errorf("summarize(nil) = %+v", d)
	}
	if d := summarize([]float64{3, 1, 2}); d.Median != 2 || d.TopPct != 0 {
		t.Errorf("small sample = %+v", d)
	}
}

// The median of per-triplet ratios is not the ratio of the medians: a
// triplet that ran while the host was slow is slow in both its halves, and
// only the first form lets that cancel.
func TestRatioMedianIsPerTriplet(t *testing.T) {
	seq := []float64{60, 120, 62, 61, 300}
	spec := []float64{30, 60, 31, 61, 100}
	// ratios: 2, 2, 2, 1, 3
	if got := ratioMedian(seq, spec); got != 2 {
		t.Errorf("ratioMedian = %g, want 2", got)
	}
	if naive := median(seq) / median(spec); naive == 2 {
		t.Errorf("test data does not tell the two forms apart (naive %g)", naive)
	}
	if got := ratioMedian([]float64{1, 2}, []float64{0, 4}); got != 0.5 {
		t.Errorf("a zero denominator must be skipped, got %g", got)
	}
}
