package classify

import (
	"sort"

	"routelab/internal/asn"
	"routelab/internal/parallel"
)

// Verdicts is a measurement set judged once under every refinement: one
// Category column per Refinement holding the verdict on every decision
// of the measurements, in measurement then decision order. It is built
// by Context.Judge and read-only after, so any number of goroutines may
// read it without a lock. The figure and table analyses of §4–§6 read
// their categories here instead of judging again.
type Verdicts struct {
	cx *Context
	ms []Measurement
	// start[i] is the column index of ms[i]'s first decision;
	// start[len(ms)] is the column length.
	start []int
	// cols[ref] is the column of Refinement ref, and counts[ref] its
	// verdicts per Category.
	cols   [][]Category
	counts []categoryCounts
	// skew[0] and skew[1] are Simple's violation skew by deciding AS and
	// by destination AS (ViolationSkew).
	skew [2][]SkewPoint
}

// categoryCounts holds one count per Category, indexed by it.
type categoryCounts [NonBestLong + 1]int

// Judge classifies every decision of ms under every refinement, one
// column per refinement fanned out over workers (parallel.Workers
// semantics). Each column's pass also counts its categories and, under
// Simple, ranks the violation skews, so Breakdown and ViolationSkew only
// read. The model cache entries it fills are the ones every later reader
// of the result would have filled, so a Context whose measurements were
// judged stops growing once it is served.
func (cx *Context) Judge(ms []Measurement, workers int) *Verdicts {
	v := &Verdicts{cx: cx, ms: ms, start: make([]int, len(ms)+1)}
	for i := range ms {
		v.start[i+1] = v.start[i] + len(ms[i].Decisions)
	}
	// Each worker writes only its own refinement's counts, and only
	// Simple's writes the skews; Map returns after every worker has.
	v.counts = make([]categoryCounts, len(Refinements))
	v.cols = parallel.Map(Refinements, workers, func(_ int, ref Refinement) []Category {
		col := make([]Category, 0, v.start[len(ms)])
		var counts categoryCounts
		for i := range ms {
			for _, d := range ms[i].Decisions {
				c := cx.Classify(d, ref)
				col = append(col, c)
				counts[c]++
			}
		}
		v.counts[ref] = counts
		if ref == Simple {
			v.skew = [2][]SkewPoint{skewOf(ms, col, false), skewOf(ms, col, true)}
		}
		return col
	})
	return v
}

// Column returns every verdict under ref, aligned to the judged
// decisions. The slice is shared: callers must not modify it.
func (v *Verdicts) Column(ref Refinement) []Category { return v.cols[ref] }

// Of returns the verdicts under ref on the decisions of the i-th judged
// measurement, in decision order. The slice is shared: callers must not
// modify it.
func (v *Verdicts) Of(i int, ref Refinement) []Category {
	return v.cols[ref][v.start[i]:v.start[i+1]]
}

// Breakdown returns how many judged decisions fall in each category
// under ref, counted by Judge; categories no decision fell in are absent.
func (v *Verdicts) Breakdown(ref Refinement) map[Category]int {
	out := make(map[Category]int, len(Categories))
	for c, n := range v.counts[ref] {
		if n > 0 {
			out[Category(c)] = n
		}
	}
	return out
}

// SkewPoint is one AS's share of the violations (Figure 2).
type SkewPoint struct {
	AS    asn.ASN
	Count int
}

// ViolationSkew ranks ASes by their share of violating decisions (every
// category but Best/Short) under Simple, the refinement Figure 2 plots,
// as Judge ranked them. The "source" of a violation is the AS that MADE
// the deviating decision (the paper's Cogent example), not the probe
// host; the destination is the decision's destination AS. The slice is
// shared: callers must not modify it.
func (v *Verdicts) ViolationSkew(byDestination bool) []SkewPoint {
	if byDestination {
		return v.skew[1]
	}
	return v.skew[0]
}

// skewOf ranks the ASes of ms's decisions by their violations in col,
// the decisions' verdicts in order: most violations first, ties by ASN.
func skewOf(ms []Measurement, col []Category, byDestination bool) []SkewPoint {
	counts := map[asn.ASN]int{}
	k := 0
	for i := range ms {
		for j := range ms[i].Decisions {
			d := &ms[i].Decisions[j]
			if col[k].IsViolation() {
				key := d.At
				if byDestination {
					key = d.DstAS
				}
				counts[key]++
			}
			k++
		}
	}
	out := make([]SkewPoint, 0, len(counts))
	for a, n := range counts {
		out = append(out, SkewPoint{AS: a, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].AS < out[j].AS
	})
	return out
}
