// Package stats holds the small numeric helpers the experiment reports
// share: percentage formatting guards, cumulative distributions, and a
// skew summary for ranked contribution plots (Figure 2).
package stats

import "sort"

// Pct returns 100*part/total, or 0 when total is 0.
func Pct(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// CDF computes the cumulative fraction series of a descending-count
// ranking: out[i] = sum(counts[0..i]) / sum(counts). Counts must be
// non-negative; the input is not reordered.
func CDF(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	run := 0
	for i, c := range counts {
		run += c
		if total > 0 {
			out[i] = float64(run) / float64(total)
		}
	}
	return out
}

// Gini computes the Gini coefficient of a non-negative count vector — a
// scalar skew measure used to compare Figure 2's source vs destination
// imbalance. 0 is perfectly even, values near 1 are maximally skewed.
func Gini(counts []int) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	cp := append([]int(nil), counts...)
	sort.Ints(cp)
	var cum, total float64
	for _, c := range cp {
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	var lorenz float64
	for _, c := range cp {
		cum += float64(c)
		lorenz += cum
	}
	// Gini = 1 - 2 * (area under Lorenz curve).
	return 1 - (2*lorenz-total)/(float64(n)*total)
}

// Downsample picks ~n evenly-spaced points from a series (always
// including the first and last), for rendering long CDFs compactly.
func Downsample(series []float64, n int) []float64 {
	if n <= 0 || len(series) <= n {
		return append([]float64(nil), series...)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(series) - 1) / (n - 1)
		out = append(out, series[idx])
	}
	return out
}
