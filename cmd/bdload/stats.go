package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 { return slices.Sorted(slices.Values(v)) }

// percentile returns the p-th percentile (0 < p ≤ 100) of an ascending
// slice by the nearest-rank rule; 0 for an empty slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	return asc[min(max(rank, 1), len(asc))-1]
}

// median returns the 50th percentile of v (which need not be sorted).
func median(v []float64) float64 { return percentile(sorted(v), 50) }

// mean returns the arithmetic mean of v; 0 for an empty slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tailCandidates are the percentiles a timing may be reported at, in
// tenths of a percent so that "ten samples beyond" is exact arithmetic.
var tailCandidates = []int{500, 750, 900, 950, 990, 999}

// tailPercentile picks the highest candidate percentile that still has
// at least ten of the n samples beyond it — the choosing-metrics rule
// for how far into the tail a sample count lets a report go. With
// fewer than 20 samples not even the median qualifies and ok is false.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n*(1000-c) >= 10*1000 {
			p, ok = float64(c)/10, true
		}
	}
	return p, ok
}

// worseBy returns the share of first by which second is worse, in the
// metric's own direction: positive means second regressed.
func worseBy(better string, first, second float64) float64 {
	if first == 0 {
		if second == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if better == "higher" {
		return (first - second) / math.Abs(first)
	}
	return (second - first) / math.Abs(first)
}

// withinBound is the regression rule of BENCHMARK.json: second may be
// worse than first by at most bound (a share of first).
func withinBound(better string, bound, first, second float64) bool {
	return worseBy(better, first, second) <= bound
}
