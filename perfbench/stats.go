package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a tail read from fewer is one or two unlucky requests, not
// a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs; xs need not be sorted. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples. The epsilon absorbs float error in p*n (99.9% of 10000 must
// rank 9990, not 9991).
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked after the p-th percentile of n.
func beyond(n int, p float64) int { return n - rank(n, p) }

func median(xs []float64) float64 { return percentile(xs, 50) }

// weighted is a sample that stands for w units of work, each of which
// took the sample's value: an app run's host time per 1000 warp
// instructions, weighted by its warp instructions.
type weighted struct{ v, w float64 }

// weightedPercentile returns the smallest value v such that at least p%
// of the total weight lies at or below v: the cost at which p% of the
// work ran. It returns 0 for no samples.
func weightedPercentile(xs []weighted, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]weighted(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	total := 0.0
	for _, x := range s {
		total += x.w
	}
	acc := 0.0
	for _, x := range s {
		acc += x.w
		if acc >= p/100*total*(1-1e-12) {
			return x.v
		}
	}
	return s[len(s)-1].v
}

// above counts the samples whose value exceeds v.
func above(xs []weighted, v float64) int {
	n := 0
	for _, x := range xs {
		if x.v > v {
			n++
		}
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
