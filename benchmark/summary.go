package main

import (
	"math"
	"sort"
)

// Dist is how every timing is reported: the median, the quartiles, the
// sample count, and the highest percentile that still has at least ten
// samples beyond it (TopPct is 0 when the sample is too small for any).
type Dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	TopPct float64 `json:"top_pct"`
	Top    float64 `json:"top"`
}

// tailPercentiles are the candidates for Dist.TopPct, ascending.
var tailPercentiles = []float64{90, 95, 99, 99.9, 99.99}

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: fewer, and the "percentile" is one or two outliers.
const minBeyond = 10

// quantile returns the q-quantile (0..1) of an ascending sample by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample; NaN when empty.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// topPercentile picks the highest candidate percentile with at least
// minBeyond of n samples beyond it, or 0 when none qualifies.
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range tailPercentiles {
		// The small slack keeps 100 x (1 - 0.9) from reading 9.99.
		if float64(n)*(100-p)/100 >= minBeyond-1e-6 {
			top = p
		}
	}
	return top
}

// summarize condenses a sample into a Dist.
func summarize(xs []float64) Dist {
	s := sortedCopy(xs)
	d := Dist{N: len(s)}
	if len(s) == 0 {
		return d
	}
	d.Median = quantile(s, 0.5)
	d.Q1 = quantile(s, 0.25)
	d.Q3 = quantile(s, 0.75)
	if p := topPercentile(len(s)); p > 0 {
		d.TopPct = p
		d.Top = quantile(s, p/100)
	}
	return d
}

// ratioMedian is the median of the element-wise ratios num[i]/den[i]: the
// reps of one triplet run back to back, so host drift cancels inside each
// ratio before the median is taken.
func ratioMedian(num, den []float64) float64 {
	n := len(num)
	if len(den) < n {
		n = len(den)
	}
	rs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if den[i] > 0 {
			rs = append(rs, num[i]/den[i])
		}
	}
	return median(rs)
}
