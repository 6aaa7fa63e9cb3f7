package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values when len(xs) is even), or 0 for no samples. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending slice:
// the smallest sample with at least p percent of the samples at or
// below it. p is in (0, 100].
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rank(len(asc), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the percentiles tail may report, highest first.
var tailLadder = []float64{99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a percentile's rank
// before the percentile says anything about the tail rather than about
// one or two outliers.
const minBeyond = 10

// tail returns the highest percentile of the ladder that has at least
// minBeyond samples beyond its rank, and its value. With too few
// samples for any of them it falls back to the median (p = 50).
func tail(asc []float64) (p, v float64) {
	n := len(asc)
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p, percentile(asc, p)
		}
	}
	return 50, median(asc)
}
