package main

import "testing"

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ten := seq(10)
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(ten, tc.p); got != tc.want {
			t.Errorf("p%v of 1..10 = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of nothing = %v, want 0", got)
	}
}

// TestTailNeedsTenBeyond pins the rule behind op_tail_ms: a percentile
// is reported only when at least ten samples lie beyond its rank.
func TestTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		p, v  float64
		cause string
	}{
		{1000, 99, 990, "rank 990 leaves exactly ten beyond"},
		{999, 95, 950, "rank 990 of 999 leaves nine: p99 is out, p95 leaves 49"},
		{200, 95, 190, "rank 190 of 200 leaves ten"},
		{199, 90, 180, "rank 190 of 199 leaves nine: down to p90"},
		{40, 75, 30, "rank 30 of 40 leaves ten"},
		{39, 50, 20, "no ladder percentile has ten beyond: the median"},
		{3, 50, 2, "three samples: the median"},
	} {
		p, v := tail(seq(tc.n))
		if p != tc.p || v != tc.v {
			t.Errorf("tail of 1..%d = p%v %v, want p%v %v (%s)", tc.n, p, v, tc.p, tc.v, tc.cause)
		}
	}
}
