package classify

import (
	"routelab/internal/asn"
	"routelab/internal/bgp"
)

// MagnetCause is a Table 2 row: the BGP decision step inferred to be
// behind an AS's route choice after the anycast.
type MagnetCause uint8

const (
	// CauseBestRel: the chosen route is cheaper (per the inferred
	// relationships) than every other route observed from the AS.
	CauseBestRel MagnetCause = iota
	// CauseShorterPath: same cost class, strictly shortest AS path.
	CauseShorterPath
	// CauseIntradomain: the AS moved to a route that ties on cost and
	// length — an intradomain (IGP) tie-breaker.
	CauseIntradomain
	// CauseOldestRoute: the AS kept the magnet route on a pure tie —
	// route age (the last tie-breaker before router ID).
	CauseOldestRoute
	// CauseViolation: the chosen route is more expensive, or same cost
	// but longer, than another observed route.
	CauseViolation
)

// MagnetCauses lists the Table 2 rows in order.
var MagnetCauses = []MagnetCause{CauseBestRel, CauseShorterPath, CauseIntradomain, CauseOldestRoute, CauseViolation}

// String names the cause as Table 2 does.
func (m MagnetCause) String() string {
	switch m {
	case CauseBestRel:
		return "Best relationship"
	case CauseShorterPath:
		return "Shorter path"
	case CauseIntradomain:
		return "Intradomain tie-breaker"
	case CauseOldestRoute:
		return "Oldest route (magnet)"
	default:
		return "Violation"
	}
}

// MagnetDecision is one observation prepared for classification: the
// route an AS chose after anycast and every other route the observer
// saw from that AS across the experiment campaign.
type MagnetDecision struct {
	AS asn.ASN
	// Chosen is the post-anycast route.
	Chosen bgp.Route
	// KeptMagnet reports whether the AS stayed on its magnet-phase
	// route.
	KeptMagnet bool
	// Sticky reports whether the AS settled on one dominant next hop
	// after the anycasts, the same in at least 2/3 of the campaign's
	// runs, regardless of which mux was the magnet. A sticky AS is
	// driven by a static preference (IGP cost); a non-sticky keeper
	// follows whichever route arrived first (age).
	Sticky bool
	// Others are the distinct alternative routes observed from the AS
	// (excluding Chosen).
	Others []bgp.Route
}

// ClassifyMagnet reverse-engineers the decision step (§3.2): cost is
// the inferred relationship rank of the route's next hop; length is the
// BGP path length.
func (cx *Context) ClassifyMagnet(d MagnetDecision) MagnetCause {
	if len(d.Others) == 0 {
		// No alternative observed: trivially the best available; the
		// paper's totals only include ASes with alternatives, so
		// callers filter these out — return BestRel defensively.
		return CauseBestRel
	}
	cost := func(r bgp.Route) int { return cx.Graph.Rel(d.AS, r.NextHop).Rank() }
	cCost, cLen := cost(d.Chosen), d.Chosen.Path.Len()
	cheaperThanAll, minOtherCost := true, 99
	shortestAmongTies := true
	for _, o := range d.Others {
		oc := cost(o)
		if oc < minOtherCost {
			minOtherCost = oc
		}
		if oc <= cCost {
			cheaperThanAll = false
		}
		if oc == cCost && o.Path.Len() <= cLen {
			shortestAmongTies = false
		}
	}
	switch {
	case cheaperThanAll:
		return CauseBestRel
	case minOtherCost < cCost:
		return CauseViolation
	case shortestAmongTies:
		return CauseShorterPath
	default:
		// Cost ties exist and the chosen route is not strictly
		// shortest. If an equal-cost alternative is strictly SHORTER,
		// the model is violated; on exact ties the tie-breakers decide.
		for _, o := range d.Others {
			if cost(o) == cCost && o.Path.Len() < cLen {
				return CauseViolation
			}
		}
		if d.KeptMagnet && !d.Sticky {
			// Kept whatever arrived first, and lands on different next
			// hops depending on the magnet: route age decided.
			return CauseOldestRoute
		}
		// A static per-exit preference decided (the same winner
		// regardless of history): intradomain cost.
		return CauseIntradomain
	}
}

// MagnetBreakdown tallies a batch of decisions into Table 2 rows.
func (cx *Context) MagnetBreakdown(ds []MagnetDecision) map[MagnetCause]int {
	out := make(map[MagnetCause]int, 5)
	for _, d := range ds {
		if len(d.Others) == 0 {
			continue // unobservable: no alternatives known
		}
		out[cx.ClassifyMagnet(d)]++
	}
	return out
}
