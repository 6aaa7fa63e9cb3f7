package classify

import "routelab/internal/parallel"

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
	// cols[ref] is the column of Refinement ref.
	cols [][]Category
}

// Judge classifies every decision of ms under every refinement, one
// column per refinement fanned out over workers (parallel.Workers
// semantics). The model caches it fills are the ones every later reader
// of the result would have filled, so a Context whose measurements were
// judged stops growing once it is served.
func (cx *Context) Judge(ms []Measurement, workers int) *Verdicts {
	v := &Verdicts{cx: cx, ms: ms, start: make([]int, len(ms)+1)}
	for i := range ms {
		v.start[i+1] = v.start[i] + len(ms[i].Decisions)
	}
	v.cols = parallel.Map(Refinements, workers, func(_ int, ref Refinement) []Category {
		col := make([]Category, 0, v.start[len(ms)])
		for i := range ms {
			for _, d := range ms[i].Decisions {
				col = append(col, cx.Classify(d, ref))
			}
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

// Breakdown counts the judged decisions per category under ref.
func (v *Verdicts) Breakdown(ref Refinement) map[Category]int {
	out := make(map[Category]int, 4)
	for _, c := range v.cols[ref] {
		out[c]++
	}
	return out
}
