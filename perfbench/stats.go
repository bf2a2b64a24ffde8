package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. It also returns how many samples lie beyond
// that rank. An empty input yields (0, 0).
func nearestRank(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// supported reports whether the p-th percentile of n samples has at
// least minBeyond samples beyond it.
func supported(n int, p float64) bool {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n-rank >= minBeyond
}

// highestSupported returns the highest of the candidate percentiles
// that n samples support, or 0 when none is.
func highestSupported(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if p > best && supported(n, p) {
			best = p
		}
	}
	return best
}

// median is the middle sample (mean of the two middle ones for an even
// count); 0 for an empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method, extrapolating at the ends), the estimator the benchmark's
// stability rule is stated in. Fewer than two samples yield the sample
// itself (or zeros).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// geomean is the geometric mean of strictly positive samples; it
// returns 0 for an empty input or when any sample is not positive
// (a zero time means the measurement is broken, not fast).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
