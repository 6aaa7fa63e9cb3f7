package scenario

import (
	"testing"

	"routelab/internal/classify"
)

// TestVerdictsMatchClassify is the differential oracle for the judge
// phase. Context.Classify, one decision at a time, is the reference:
// every verdict the build stored, reached through its measurement's
// offsets, must equal it, on the serial reference path and on a pool.
func TestVerdictsMatchClassify(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the scenario twice")
	}
	for _, workers := range []int{1, 4} {
		cfg := TestConfig()
		cfg.RoutingWorkers = workers
		s, err := Build(cfg, nil)
		if err != nil {
			t.Fatalf("Build(workers=%d): %v", workers, err)
		}
		decisions := len(s.Decisions())
		if decisions == 0 {
			t.Fatalf("workers=%d: the build made no decisions", workers)
		}
		for _, ref := range classify.Refinements {
			if got := len(s.Verdicts.Column(ref)); got != decisions {
				t.Fatalf("workers=%d %s: column of %d verdicts for %d decisions", workers, ref, got, decisions)
			}
			for i := range s.Measurements {
				m := &s.Measurements[i]
				cats := s.Verdicts.Of(i, ref)
				if len(cats) != len(m.Decisions) {
					t.Fatalf("workers=%d %s: measurement %d has %d verdicts for %d decisions", workers, ref, i, len(cats), len(m.Decisions))
				}
				for j, d := range m.Decisions {
					if want := s.Context.Classify(d, ref); cats[j] != want {
						t.Fatalf("workers=%d %s: trace %d decision %d (%s via %s) stored %v, Classify says %v",
							workers, ref, m.TraceID, j, d.At, d.Via, cats[j], want)
					}
				}
			}
		}
	}
}
