package whatif

import (
	"encoding/json"
	"strconv"

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

// Result is one evaluated delta before it is rendered: the Outcome of
// its reconvergence and the changed best routes, each side rendered
// off the path tree by bgp's BestDiff. Eval and EvalOn build the
// structured Diff from it; AppendJSON appends that Diff's encoding
// without building it.
type Result struct {
	cd      *Compiled
	out     bgp.Outcome
	changes []bgp.BestChange
}

// evalOn is the core EvalOn and Evaluate share: apply, re-converge,
// diff against base.
func evalOn(eval *bgp.Computation, base *bgp.Base, cd *Compiled) (Result, error) {
	if err := cd.Apply(eval); err != nil {
		return Result{}, err
	}
	out := eval.Converge()
	return Result{cd: cd, out: out, changes: eval.BestDiff(base)}, nil
}

// Evaluate is Eval short of building the Diff: fork the frozen base,
// apply, re-converge, diff, and hand the fork's storage back.
func Evaluate(base *bgp.Base, cd *Compiled) (Result, error) {
	fork := base.Fork()
	r, err := evalOn(fork, base, cd)
	fork.Release()
	return r, err
}

// counts splits the changes by shape: a gained route has no Before, a
// lost one no After, a move both.
func (r *Result) counts() (gained, lost, moved int) {
	for i := range r.changes {
		switch bc := &r.changes[i]; {
		case !bc.Before.Held:
			gained++
		case !bc.After.Held:
			lost++
		default:
			moved++
		}
	}
	return gained, lost, moved
}

// diff is the result as a structured value.
func (r *Result) diff() Diff {
	d := Diff{
		Delta:     r.cd.Canonical(),
		Kind:      string(r.cd.kind),
		Converged: r.out.Settled,
		Events:    r.out.Events,
		Churn:     r.out.Changes,
		Affected:  len(r.changes),
	}
	d.Gained, d.Lost, d.Moved = r.counts()
	if len(r.changes) == 0 {
		return d
	}
	d.Changes = make([]Change, len(r.changes))
	// One backing array for every side of every change; sized up front,
	// so the pointers into it stay valid.
	infos := make([]RouteInfo, 0, 2*len(r.changes))
	info := func(rt bgp.RouteText) *RouteInfo {
		if !rt.Held {
			return nil
		}
		infos = append(infos, RouteInfo{NextHop: rt.NextHop, Path: rt.Path, LocalPref: rt.LocalPref})
		return &infos[len(infos)-1]
	}
	for i, bc := range r.changes {
		d.Changes[i] = Change{AS: bc.AS.String(), Before: info(bc.Before), After: info(bc.After)}
	}
	return d
}

// Per-change and per-side JSON overheads AppendJSON's size bound
// allows: the keys and punctuation around the variable text, and an
// ASN's or a local preference's widest decimal.
const (
	jsonChangeBytes = len(`{"as":"AS4294967295"},`)
	jsonSideBytes   = len(`,"before":{"next_hop":"","path":"","local_pref":-2147483648}`)
	jsonDiffBytes   = 256
)

// JSONLen bounds the length of what AppendJSON appends, so a caller can
// size one buffer for a batch.
func (r *Result) JSONLen() int {
	n := jsonDiffBytes + len(r.cd.canonical) + len(r.cd.kind) + len(r.changes)*jsonChangeBytes
	for i := range r.changes {
		for _, rt := range [2]*bgp.RouteText{&r.changes[i].Before, &r.changes[i].After} {
			if rt.Held {
				n += jsonSideBytes + len(rt.NextHop) + len(rt.Path)
			}
		}
	}
	return n
}

// AppendJSON appends the result's Diff to b exactly as json.Marshal
// encodes it, without building it: every field is appended in
// declaration order straight from the changed routes' text, ASNs as
// numbers, and nothing is reflected on.
func (r *Result) AppendJSON(b []byte) []byte {
	gained, lost, moved := r.counts()
	b = append(b, `{"delta":`...)
	b = appendString(b, r.cd.canonical)
	b = append(b, `,"kind":`...)
	b = appendString(b, string(r.cd.kind))
	b = append(b, `,"converged":`...)
	b = strconv.AppendBool(b, r.out.Settled)
	for _, f := range [...]struct {
		key string
		n   int
	}{
		{`,"affected":`, len(r.changes)}, {`,"gained":`, gained}, {`,"lost":`, lost}, {`,"moved":`, moved},
		{`,"events":`, r.out.Events}, {`,"churn":`, r.out.Changes},
	} {
		b = strconv.AppendInt(append(b, f.key...), int64(f.n), 10)
	}
	if len(r.changes) == 0 {
		return append(b, `,"changes":null}`...)
	}
	b = append(b, `,"changes":[`...)
	for i := range r.changes {
		bc := &r.changes[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = bc.AS.Append(append(b, `{"as":"`...))
		b = append(b, '"')
		b = appendSide(b, `,"before":`, &bc.Before)
		b = appendSide(b, `,"after":`, &bc.After)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// appendSide appends one side of a change as its RouteInfo field, or
// nothing for a side that holds no route (the field is omitempty).
func appendSide(b []byte, key string, rt *bgp.RouteText) []byte {
	if !rt.Held {
		return b
	}
	b = append(b, key...)
	b = append(b, `{"next_hop":`...)
	b = appendString(b, rt.NextHop)
	b = append(b, `,"path":`...)
	b = appendString(b, rt.Path)
	b = append(b, `,"local_pref":`...)
	b = strconv.AppendInt(b, int64(rt.LocalPref), 10)
	return append(b, '}')
}

// appendString appends s as a JSON string. The text of a diff — ASNs,
// paths, canonical deltas — is printable ASCII json.Marshal leaves as
// it is; anything else takes json.Marshal's own escaping.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// EvalOn applies cd to eval — a mutable computation continuing from
// base's exact state: a COW fork of it, or (in the differential oracle)
// an independently built twin — re-converges, and diffs the outcome
// against base. Converged, Events and Churn are that Converge's Outcome:
// only the work the delta caused, as eval's last Converge zeroed them.
func EvalOn(eval *bgp.Computation, base *bgp.Base, cd *Compiled) (Diff, error) {
	r, err := evalOn(eval, base, cd)
	if err != nil {
		return Diff{}, err
	}
	return r.diff(), nil
}

// Eval evaluates one delta the engine's way: fork the frozen converged
// base (O(#ASes) pointer copies), apply, re-converge incrementally,
// diff. Any number of Evals may run against one base — concurrently,
// too, since forks of a base are independent. The diff is a copy, so the
// fork's storage goes back to the engine for the next one.
func Eval(base *bgp.Base, cd *Compiled) (Diff, error) {
	r, err := Evaluate(base, cd)
	if err != nil {
		return Diff{}, err
	}
	return r.diff(), nil
}
