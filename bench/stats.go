package main

import (
	"math"
	"sort"

	"havoqgt/internal/xrand"
)

// splitmix64 is the workloads' deterministic PRNG step: the golden-ratio
// increment, then the finalizer the program already has.
func splitmix64(x uint64) uint64 { return xrand.Mix64(x + 0x9e3779b97f4a7c15) }

// draw returns the i-th value of the seed's stream: splitmix64(seed, i).
func draw(seed, i uint64) uint64 {
	return splitmix64(splitmix64(seed) + i)
}

// percentile returns the p-th percentile of an ascending sample by the
// nearest-rank definition (rank ⌈p·n⌉ clamped to [1, n]), the same rule as
// cmd/havoqd's percentile(). 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := int(math.Ceil(p * float64(n)))
	return sorted[min(max(r, 1), n)-1]
}

// sortedCopy returns vals in ascending order without touching the input.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median is the mean of the middle pair for even n, as Python's
// statistics.median, so -compare agrees with the acceptance check.
func median(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method of
// Python's statistics.quantiles(vals, n=4). It needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// ratio is num/den, or 0 when the denominator is 0 (a layer that did no work
// on this workload reports 0, not NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
