package classify

import "routelab/internal/asn"

// PredictPath turns the model into a path predictor, the use case
// (simulation, iPlane-style path prediction) whose accuracy the paper's
// whole investigation underwrites: it predicts the AS path from src to
// dst (src first) as the shortest path through the best available
// relationship class, ties broken toward the lower ASN — exactly what
// Gao–Rexford-based simulators assume ASes do. It returns nil when the
// model offers none.
func (cx *Context) PredictPath(src, dst asn.ASN) []asn.ASN {
	return cx.model(dst, asn.Prefix{}, 0).ShortestPath(src)
}

// PredictionSummary scores the model's predictions against a batch of
// measured AS paths.
type PredictionSummary struct {
	// Paths counts the measured paths of at least two ASes.
	Paths int `json:"paths"`
	// Predicted counts those the model offered any path for.
	Predicted int `json:"predicted"`
	// Exact counts predictions that match hop for hop.
	Exact int `json:"exact"`
	// SameLength counts predictions with the right length but possibly
	// different hops (the shortest-path assumption holding in length
	// only).
	SameLength int `json:"same_length"`
	// FirstHopCorrect counts predictions whose first transit hop
	// matches (the next-hop-only models of §2 care exactly about this).
	FirstHopCorrect int `json:"first_hop_correct"`
}

// EvaluatePrediction predicts each measured path from its first AS to
// its last and tallies how well the prediction matches.
func (cx *Context) EvaluatePrediction(paths [][]asn.ASN) PredictionSummary {
	var sum PredictionSummary
	for _, m := range paths {
		if len(m) < 2 {
			continue
		}
		sum.Paths++
		pred := cx.PredictPath(m[0], m[len(m)-1])
		if pred == nil {
			continue
		}
		sum.Predicted++
		common := 0 // leading ASes the two paths share
		for common < len(pred) && common < len(m) && pred[common] == m[common] {
			common++
		}
		if len(pred) == len(m) {
			sum.SameLength++
			if common == len(m) {
				sum.Exact++
			}
		}
		if common >= 2 {
			sum.FirstHopCorrect++
		}
	}
	return sum
}
