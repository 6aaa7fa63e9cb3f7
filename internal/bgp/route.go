// Package bgp implements routelab's ground-truth routing engine: a
// deterministic per-prefix route-vector computation over the topology,
// with the full BGP decision process (LocalPref from business
// relationships and policy overrides, AS-path length, intradomain-cost
// tie-breaking, route age, router ID), RFC 4271 loop prevention (which is
// what makes BGP poisoning work), and incremental reconvergence so the
// PEERING experiments can change announcements mid-flight.
//
// # Concurrency contract
//
// The package splits state into four tiers (documented in detail in
// DESIGN.md §"Concurrency model"):
//
//   - Engine is immutable after New — its dense indexes are built
//     eagerly in the constructor, it holds no lazy caches — so any
//     number of goroutines may share one Engine: Topology, NewComputation,
//     ComputePrefix, ComputeRIB, and the policy helpers are all safe to
//     call concurrently.
//   - Computation is single-owner mutable state. Announce, Withdraw,
//     Converge, and the query methods (Best, Step, Alternatives, Routes)
//     must all be called from the goroutine that owns the computation.
//     Independent Computations (different prefixes, or even the same
//     prefix twice) never share mutable state and may run concurrently.
//   - Base is what Freeze turns a Computation into: read-only by type
//     (Best, Prefix and Fork are all it offers), so any number of
//     goroutines may read it, BestDiff against it and Fork it at once.
//   - RIB is immutable once ComputeRIB returns; concurrent readers are
//     safe. Its contents are byte-identical for any worker count because
//     each prefix's computation is self-contained and the merge is done
//     in input-prefix order (see internal/parallel).
package bgp

import (
	"fmt"

	"routelab/internal/asn"
	"routelab/internal/geo"
	"routelab/internal/topology"
)

// Route is one installed best route at an AS.
type Route struct {
	Prefix asn.Prefix
	// Path is the AS path as received from the neighbor, i.e. it does
	// NOT include the owning AS itself. For an origin route it is just
	// the announcement's base path.
	Path asn.Path
	// NextHop is the neighbor the route was learned from; 0 for routes
	// the AS originates itself.
	NextHop asn.ASN
	// FromRel is the EFFECTIVE relationship of NextHop for this prefix
	// (after hybrid and partial-transit overrides). RelNone for origin
	// routes.
	FromRel topology.Rel
	// OrgRel is the route's business class for the owning ORGANIZATION:
	// equal to FromRel unless the route was learned from a sibling, in
	// which case the sibling's own class is inherited. Local preference
	// and export policy key off OrgRel, so multi-AS organizations
	// behave like one AS instead of relaying provider routes org-wide
	// at customer preference.
	OrgRel topology.Rel
	// LocalPref is the computed local preference.
	LocalPref int
	// EgressCity is the interconnection city where the owning AS hands
	// traffic to NextHop (0 for origin routes). The data plane and the
	// hybrid-relationship logic both key off it.
	EgressCity geo.CityID
	// Age is the engine's event-clock value at which this exact
	// advertisement was first installed; lower means older. It feeds the
	// "oldest route" tie-breaker the magnet experiment exposes.
	Age int
}

// rec is the engine's route record: fixed-width and pointer-free, stored
// by value in the adj-RIB-in rows, the best column and the RIB, so the
// garbage collector never scans routing state and a route costs 24
// bytes wherever it is held. The public Route is materialised from it
// at the read boundary (Engine.route).
type rec struct {
	// path is the path-tree node of the AS path as received (paths.go);
	// 0 marks an empty slot, the only zero-valued record.
	path uint32
	// nh is the dense index of the next hop, -1 for an origin route.
	// Indexes ascend with ASNs, so comparing them is the router-ID step.
	nh  int32
	lp  int32
	age uint32
	// igp and plen cache the decision-process inputs.
	igp  uint16
	plen uint16
	city geo.CityID
	from topology.Rel
	org  topology.Rel
}

// originLocalPref makes an AS's own routes always win.
const originLocalPref = 1 << 30

// route materialises the public form of a record whose path has already
// been materialised.
func (e *Engine) route(prefix asn.Prefix, r *rec, path asn.Path) Route {
	rt := Route{
		Prefix:     prefix,
		Path:       path,
		FromRel:    r.from,
		OrgRel:     r.org,
		LocalPref:  int(r.lp),
		EgressCity: r.city,
		Age:        int(r.age),
	}
	if r.nh >= 0 {
		rt.NextHop = e.asns[r.nh]
	}
	return rt
}

// IsOrigin reports whether the owning AS originates the route.
func (r Route) IsOrigin() bool { return r.NextHop == 0 }

// ASPathFrom returns the full AS-level forwarding path starting at owner:
// owner followed by the path's sequence ASes.
func (r Route) ASPathFrom(owner asn.ASN) []asn.ASN {
	return append([]asn.ASN{owner}, r.Path.Sequence()...)
}

func (r Route) String() string {
	return fmt.Sprintf("%s via %s [%s lp=%d age=%d]", r.Prefix, r.NextHop, r.Path, r.LocalPref, r.Age)
}

// DecisionStep names the step of the BGP decision process that selected a
// route over the runner-up — the ground truth the magnet experiment of
// Table 2 tries to reverse-engineer from the outside.
type DecisionStep uint8

const (
	// OnlyRoute: there was no alternative.
	OnlyRoute DecisionStep = iota
	// ByLocalPref: higher local preference (relationship) won.
	ByLocalPref
	// ByPathLen: shorter AS path won.
	ByPathLen
	// ByIGPCost: lower intradomain cost to the egress won (hot potato).
	ByIGPCost
	// ByAge: the older route won.
	ByAge
	// ByRouterID: the lowest-router-ID tie-breaker won.
	ByRouterID
)

// String names the decision step as Table 2 does.
func (d DecisionStep) String() string {
	switch d {
	case OnlyRoute:
		return "only route"
	case ByLocalPref:
		return "best relationship"
	case ByPathLen:
		return "shorter path"
	case ByIGPCost:
		return "intradomain tie-breaker"
	case ByAge:
		return "oldest route"
	case ByRouterID:
		return "router id"
	default:
		return "unknown"
	}
}

// Announcement injects a prefix at an origin AS.
type Announcement struct {
	Prefix asn.Prefix
	// Origin is the AS issuing the announcement.
	Origin asn.ASN
	// Poisoned lists ASes to wrap in an AS_SET sandwiched by the origin
	// (the PEERING poisoning idiom: ORIGIN {poisoned} ORIGIN). Nil for
	// plain announcements.
	Poisoned []asn.ASN
	// Via restricts which neighbors the origin announces to (PEERING's
	// per-mux announcements). Nil means all neighbors, still subject to
	// the origin AS's own SelectiveExport policy.
	Via []asn.ASN
	// Prepend inflates the announced path with this many extra copies of
	// the origin (announcement-side traffic engineering; the what-if
	// engine's prepend delta). 0 for plain announcements.
	Prepend int
}

// permitsNeighbor applies the Via restriction.
func (a Announcement) permitsNeighbor(n asn.ASN) bool {
	if a.Via == nil {
		return true
	}
	for _, x := range a.Via {
		if x == n {
			return true
		}
	}
	return false
}
