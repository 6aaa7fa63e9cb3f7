// Package predict turns the Gao–Rexford model into a path predictor —
// the use case (simulation, iPlane-style path prediction) whose accuracy
// the paper's whole investigation underwrites — and scores predictions
// against measured AS paths.
//
// Prediction picks, per (source, destination), the shortest path through
// the best available relationship class with deterministic tie-breaking:
// exactly what Gao–Rexford-based simulators assume ASes do.
package predict

import (
	"routelab/internal/asn"
	"routelab/internal/gaorexford"
	"routelab/internal/relgraph"
)

// Predictor caches per-destination model computations.
type Predictor struct {
	g     *relgraph.Graph
	cache map[asn.ASN]*gaorexford.Result
}

// New returns a predictor over an (inferred) relationship graph.
func New(g *relgraph.Graph) *Predictor {
	return &Predictor{g: g, cache: make(map[asn.ASN]*gaorexford.Result)}
}

// Path predicts the AS path from src to dst (src first), or nil when the
// model offers none.
func (p *Predictor) Path(src, dst asn.ASN) []asn.ASN {
	res, ok := p.cache[dst]
	if !ok {
		res = gaorexford.Compute(p.g, dst)
		p.cache[dst] = res
	}
	return res.ShortestPath(src)
}

// Score compares one prediction against a measured path.
type Score struct {
	// Exact: the prediction matches hop for hop.
	Exact bool
	// CommonPrefix is the number of leading ASes the two paths share.
	CommonPrefix int
	// LenDelta is predicted length minus measured length (negative:
	// the model predicted a shorter path than reality took).
	LenDelta int
	// Predicted reports whether the model offered any path at all.
	Predicted bool
}

// ScorePath evaluates a prediction against a measurement.
func (p *Predictor) ScorePath(measured []asn.ASN) Score {
	if len(measured) < 2 {
		return Score{}
	}
	pred := p.Path(measured[0], measured[len(measured)-1])
	if pred == nil {
		return Score{}
	}
	s := Score{Predicted: true, LenDelta: len(pred) - len(measured)}
	n := len(pred)
	if len(measured) < n {
		n = len(measured)
	}
	for i := 0; i < n; i++ {
		if pred[i] != measured[i] {
			break
		}
		s.CommonPrefix++
	}
	s.Exact = s.CommonPrefix == len(pred) && len(pred) == len(measured)
	return s
}

// Summary aggregates scores across a measurement campaign.
type Summary struct {
	Paths, Predicted, Exact int
	// SameLength counts predictions with the right length but possibly
	// different hops (the shortest-path assumption holding in length
	// only).
	SameLength int
	// FirstHopCorrect counts predictions whose first transit hop
	// matches (the next-hop-only models of §2 care exactly about this).
	FirstHopCorrect int
}

// Evaluate scores a batch of measured AS paths.
func (p *Predictor) Evaluate(paths [][]asn.ASN) Summary {
	var sum Summary
	for _, m := range paths {
		if len(m) < 2 {
			continue
		}
		sum.Paths++
		sc := p.ScorePath(m)
		if !sc.Predicted {
			continue
		}
		sum.Predicted++
		if sc.Exact {
			sum.Exact++
		}
		if sc.LenDelta == 0 {
			sum.SameLength++
		}
		if sc.CommonPrefix >= 2 {
			sum.FirstHopCorrect++
		}
	}
	return sum
}
