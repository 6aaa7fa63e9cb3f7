package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPctFrac(t *testing.T) {
	if Pct(1, 4) != 25 || Pct(3, 0) != 0 {
		t.Error("Pct")
	}
}

func TestCDF(t *testing.T) {
	got := CDF([]int{5, 3, 2})
	want := []float64{0.5, 0.8, 1.0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("CDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if len(CDF(nil)) != 0 {
		t.Error("empty CDF")
	}
	zero := CDF([]int{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Error("all-zero CDF should stay zero")
	}
}

func TestGiniBounds(t *testing.T) {
	if g := Gini([]int{5, 5, 5, 5}); math.Abs(g) > 1e-9 {
		t.Errorf("uniform Gini = %v, want 0", g)
	}
	skewed := Gini([]int{100, 0, 0, 0})
	if skewed < 0.7 {
		t.Errorf("maximally skewed Gini = %v, want near 0.75 for n=4", skewed)
	}
	if Gini(nil) != 0 || Gini([]int{0, 0}) != 0 {
		t.Error("degenerate Gini should be 0")
	}
}

// Property: CDF is monotone nondecreasing and ends at 1 for non-empty
// positive inputs; Gini stays in [0,1).
func TestProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		counts := make([]int, len(raw))
		sum := 0
		for i, r := range raw {
			counts[i] = int(r)
			sum += int(r)
		}
		cdf := CDF(counts)
		for i := 1; i < len(cdf); i++ {
			if cdf[i] < cdf[i-1]-1e-12 {
				return false
			}
		}
		if sum > 0 && math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
			return false
		}
		g := Gini(counts)
		return g >= -1e-9 && g < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDownsample(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = float64(i)
	}
	got := Downsample(series, 5)
	if len(got) != 5 || got[0] != 0 || got[4] != 99 {
		t.Fatalf("Downsample = %v", got)
	}
	short := []float64{1, 2}
	if len(Downsample(short, 5)) != 2 {
		t.Error("short series should pass through")
	}
}
