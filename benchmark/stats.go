package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of v by the nearest-rank
// method: the smallest sample with at least p percent of the samples at or
// below it; v need not be sorted. Always a sample, never a value between two:
// the query mix has 14 plans of very different cost, and a value interpolated
// across the gap between two of them repeats worse than either. An empty input
// yields 0 so that a metric a workload does not produce reads as 0.
func percentile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(v []float64) float64 { return percentile(v, 50) }

// quartiles returns the 25th, 50th and 75th percentile of v.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentileSorted(s, 25), percentileSorted(s, 50), percentileSorted(s, 75)
}

// ratio returns a/b, or 0 when b is 0 (a share of nothing is reported as 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
