package whatif

import (
	"routelab/internal/bgp"
)

// RouteInfo is the decision-relevant slice of one installed route.
type RouteInfo struct {
	// NextHop names the neighbor the route was learned from; it is empty
	// on the origin's own route, which no neighbor sent.
	NextHop string `json:"next_hop"`
	// Path is the AS path as received, in looking-glass form
	// ("3356 174 {64500,64501} 65000").
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
// against base. Converged, Events and Churn are that Converge's Outcome:
// only the work the delta caused, as eval's last Converge zeroed them.
func EvalOn(eval *bgp.Computation, base *bgp.Base, cd *Compiled) (Diff, error) {
	if err := cd.Apply(eval); err != nil {
		return Diff{}, err
	}
	out := eval.Converge()
	d := Diff{
		Delta:     cd.Canonical(),
		Kind:      string(cd.kind),
		Converged: out.Settled,
		Events:    out.Events,
		Churn:     out.Changes,
	}
	changes := eval.BestDiff(base)
	if len(changes) > 0 {
		d.Changes = make([]Change, 0, len(changes))
	}
	// One backing array for every side of every change; sized up front,
	// so the pointers into it stay valid.
	infos := make([]RouteInfo, 0, 2*len(changes))
	info := func(rt bgp.RouteText) *RouteInfo {
		if !rt.Held {
			return nil
		}
		infos = append(infos, RouteInfo{NextHop: rt.NextHop, Path: rt.Path, LocalPref: rt.LocalPref})
		return &infos[len(infos)-1]
	}
	for _, bc := range changes {
		ch := Change{AS: bc.AS.String(), Before: info(bc.Before), After: info(bc.After)}
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
