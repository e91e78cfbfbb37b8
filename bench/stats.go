package main

import (
	"math"
	"sort"

	"repro/internal/metrics"
)

// median of an unsorted sample; 0 for an empty one.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return metrics.Percentile(s, 0.5)
}

// tailLadder is the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tail returns the highest percentile of the ladder that still has at least
// ten samples beyond it, and the value there. A sample too small for any
// step reports its median.
func tail(sorted []float64) (p, value float64) {
	n := len(sorted)
	if n == 0 {
		return 0.5, 0
	}
	for _, p = range tailLadder {
		// Rank of the percentile (1-based, nearest rank); samples beyond it
		// are those of higher rank.
		rank := int(math.Ceil(p*float64(n) - 1e-9))
		if n-rank >= 10 {
			return p, sorted[rank-1]
		}
	}
	return 0.5, metrics.Percentile(sorted, 0.5)
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the default "exclusive" method), which is how the spread of repeated
// runs is judged. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
