package whatif

import (
	"routelab/internal/bgp"
)

// RouteInfo is the decision-relevant slice of one installed route.
type RouteInfo struct {
	NextHop   string `json:"next_hop"`
	Path      string `json:"path"`
	LocalPref int    `json:"local_pref"`
}

// Change is one AS whose best-path decision differs between the base
// and the delta world. A nil Before is a gained route, a nil After a
// lost one, both set a move.
type Change struct {
	AS     string     `json:"as"`
	Before *RouteInfo `json:"before,omitempty"`
	After  *RouteInfo `json:"after,omitempty"`
}

// Diff is the structured outcome of one delta evaluation: the changed
// best-path decisions (ascending ASN) plus the reconvergence churn the
// delta caused. It deliberately carries no full snapshot — the point of
// the what-if API is that the answer is the difference.
type Diff struct {
	// Delta is the canonical form of the evaluated delta.
	Delta string `json:"delta"`
	Kind  string `json:"kind"`
	// Converged reports whether the reconvergence reached a fixed point
	// (policy deltas can, in principle, oscillate into the event cap).
	Converged bool `json:"converged"`
	// Affected counts the ASes whose decision changed (== len(Changes)).
	Affected int `json:"affected"`
	// Gained/Lost/Moved split Affected by change shape.
	Gained int `json:"gained"`
	Lost   int `json:"lost"`
	Moved  int `json:"moved"`
	// Events counts the per-AS process events of the reconvergence;
	// Churn the best-route installations. Together they are the path
	// churn the paper's counterfactual probes measure.
	Events int `json:"events"`
	Churn  int `json:"churn"`
	// Changes lists every affected AS, ascending.
	Changes []Change `json:"changes"`
}

// EvalOn applies cd to eval — a mutable computation continuing from
// base's exact state: a COW fork of it, or (in the differential oracle)
// an independently built twin — re-converges, and diffs the outcome
// against base. Events and Churn count only the work the delta caused.
func EvalOn(eval *bgp.Computation, base *bgp.Base, cd *Compiled) (Diff, error) {
	ev0, ch0 := eval.Counters()
	if err := cd.Apply(eval); err != nil {
		return Diff{}, err
	}
	converged := eval.Converge()
	ev1, ch1 := eval.Counters()
	d := Diff{
		Delta:     cd.Canonical(),
		Kind:      string(cd.kind),
		Converged: converged,
		Events:    ev1 - ev0,
		Churn:     ch1 - ch0,
	}
	for _, bc := range eval.BestDiff(base) {
		ch := Change{AS: bc.AS.String()}
		if bc.Before != nil {
			ch.Before = &RouteInfo{
				NextHop:   bc.Before.NextHop.String(),
				Path:      bc.Before.Path.String(),
				LocalPref: bc.Before.LocalPref,
			}
		}
		if bc.After != nil {
			ch.After = &RouteInfo{
				NextHop:   bc.After.NextHop.String(),
				Path:      bc.After.Path.String(),
				LocalPref: bc.After.LocalPref,
			}
		}
		switch {
		case ch.Before == nil:
			d.Gained++
		case ch.After == nil:
			d.Lost++
		default:
			d.Moved++
		}
		d.Changes = append(d.Changes, ch)
	}
	d.Affected = len(d.Changes)
	return d, nil
}

// Eval evaluates one delta the engine's way: fork the frozen converged
// base (O(#ASes) pointer copies), apply, re-converge incrementally,
// diff. Any number of Evals may run against one base — concurrently,
// too, since forks of a base are independent. The diff is a copy, so the
// fork's storage goes back to the engine for the next one.
func Eval(base *bgp.Base, cd *Compiled) (Diff, error) {
	fork := base.Fork()
	d, err := EvalOn(fork, base, cd)
	fork.Release()
	return d, err
}
