package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending sample: the smallest value with at least p % of the sample at
// or below it. An empty sample reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples:
// ⌈p·n/100⌉, kept inside [1, n]. The small slack keeps a product that is a
// whole number in exact arithmetic (99.9 % of 10 000) from rounding up.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// reportable lists the percentiles a row may carry, highest first.
var reportable = []float64{99.9, 99, 90, 50}

// highestPercentile is the highest reportable percentile that still has at
// least ten of the n samples beyond it, or 0 when even the median does not.
func highestPercentile(n int) float64 {
	for _, p := range reportable {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// summary is one timing row: the median, the highest percentile the sample
// supports, and the sample count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	HighP  float64 `json:"high_percentile"`
	High   float64 `json:"high"`
	Sum    float64 `json:"sum"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, x := range sorted {
		s.Sum += x
	}
	s.Median = percentile(sorted, 50)
	if s.HighP = highestPercentile(len(sorted)); s.HighP > 0 {
		s.High = percentile(sorted, s.HighP)
	}
	return s
}

func median(xs []float64) float64 { return summarize(xs).Median }

// steady is the value a run reports for a metric measured once per slice:
// the decile at the good end of the slices — the 90th percentile when higher
// is better, the 10th when lower is. Interference from outside the benchmark
// is one-sided, so this end of the distribution moves least between runs of
// the same code, and a tenth of the slices still lie beyond it.
func steady(perSlice []float64, higherIsBetter bool) float64 {
	sorted := append([]float64(nil), perSlice...)
	sort.Float64s(sorted)
	if higherIsBetter {
		return percentile(sorted, 90)
	}
	return percentile(sorted, 10)
}
