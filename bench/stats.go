package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// sliceMedian is the median of a per-slice series, leaving out the slices
// that have no value (NaN: nothing completed in them).
func sliceMedian(perSlice []float64) float64 {
	var have []float64
	for _, v := range perSlice {
		if !math.IsNaN(v) {
			have = append(have, v)
		}
	}
	return median(have)
}

// quartiles returns the first and third quartile of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4) — the estimator the
// driver applies to the ten-seed spread, so -aa judges with the same ruler.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i in 1..3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4 // taken after clamping, as Python does
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending-sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9)) // 99.9 % of 10 000 is rank 9 990, not 9 990.000000000002 → 9 991
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailLadder is the percentile ladder a latency report climbs: beyond the
// p-th percentile lies one sample in oneIn.
var tailLadder = []struct {
	p     float64
	oneIn int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// highestPercentile picks the highest rung of tailLadder that still has at
// least ten samples beyond it in a sample of n — a tail read off fewer
// than ten observations is an anecdote, not a percentile. It returns 0
// when even the median lacks that support (n < 20).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, r := range tailLadder {
		if n >= 10*r.oneIn {
			best = r.p
		}
	}
	return best
}

// jain is Jain's fairness index (Σx)²/(n·Σx²) over xs; 1 when every share
// is equal, 1/n when one flow has everything.
func jain(xs []float64) float64 {
	var s, ss float64
	for _, x := range xs {
		s += x
		ss += x * x
	}
	if ss == 0 {
		return 0
	}
	return s * s / (float64(len(xs)) * ss)
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
