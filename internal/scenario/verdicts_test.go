package scenario

import (
	"reflect"
	"sort"
	"testing"

	"routelab/internal/asn"
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

// skewLoop is Verdicts.ViolationSkew as it was before Judge ranked the
// skews: one map increment per violating decision on every call, read
// through the measurements' offsets. It is the reference the stored
// skews are held to.
func skewLoop(s *Scenario, ref classify.Refinement, byDestination bool) []classify.SkewPoint {
	counts := map[asn.ASN]*classify.SkewPoint{}
	for i := range s.Measurements {
		m := &s.Measurements[i]
		for j, cat := range s.Verdicts.Of(i, ref) {
			d := &m.Decisions[j]
			if !cat.IsViolation() {
				continue
			}
			key := d.At
			if byDestination {
				key = d.DstAS
			}
			sp := counts[key]
			if sp == nil {
				sp = &classify.SkewPoint{AS: key}
				counts[key] = sp
			}
			sp.Count++
		}
	}
	out := make([]classify.SkewPoint, 0, len(counts))
	for _, sp := range counts {
		out = append(out, *sp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].AS < out[j].AS
	})
	return out
}

// TestVerdictCountsMatchRecount holds what Judge stores beside the
// columns to a from-scratch reading of them: under every refinement, the
// per-category counts Breakdown returns equal a recount of Column(ref),
// and on both sides Simple's stored violation skew equals skewLoop.
func TestVerdictCountsMatchRecount(t *testing.T) {
	s := getScenario(t)
	for _, ref := range classify.Refinements {
		want := map[classify.Category]int{}
		for _, c := range s.Verdicts.Column(ref) {
			want[c]++
		}
		if got := s.Verdicts.Breakdown(ref); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stored counts %v, a recount of the column says %v", ref, got, want)
		}
	}
	for _, byDst := range []bool{false, true} {
		want := skewLoop(s, classify.Simple, byDst)
		if len(want) == 0 {
			t.Fatalf("byDestination=%v: the test world has no violations to rank", byDst)
		}
		if got := s.Verdicts.ViolationSkew(byDst); !reflect.DeepEqual(got, want) {
			t.Errorf("byDestination=%v: stored skew of %d ASes differs from the reference loop's %d", byDst, len(got), len(want))
		}
	}
}
