// Package topology holds the ground-truth AS-level Internet of routelab:
// ASes with classes and geographic footprints, inter-AS links with
// business relationships (including sibling, hybrid, and partial-transit
// arrangements), undersea-cable operator ASes, originated prefixes, and a
// deterministic generator that wires it all together.
//
// Everything downstream — the BGP engine, the measurement pipeline, the
// inference pipeline — consumes this package. Crucially, the inference
// pipeline is NOT allowed to read ground-truth relationships; it must
// re-infer them from vantage-point paths, exactly as CAIDA does.
//
// A Topology is read-only once built. Every mutator is unexported, so
// no other package can name one — the compiler holds that invariant —
// and each still panics on a sealed topology (Topology.mutable), which
// is what lets the engine and every parallel stage share one Topology
// without locks.
package topology

import (
	"fmt"

	"routelab/internal/asn"
	"routelab/internal/geo"
	"routelab/internal/registry"
)

// Class buckets ASes the way Oliveira et al.'s categorization (used for
// the paper's Table 1) does, with two extra classes the generator needs:
// content networks and undersea-cable operators.
type Class uint8

const (
	// ClassNone is the zero value; no generated AS carries it.
	ClassNone Class = iota
	// Tier1 ASes form the settlement-free core clique.
	Tier1
	// LargeISP ASes are national/continental transit providers.
	LargeISP
	// SmallISP ASes are regional/access providers.
	SmallISP
	// Stub ASes are eyeball and enterprise edge networks.
	Stub
	// Content ASes originate popular services (CDN, video, web).
	Content
	// CableOp ASes operate undersea cables: independently-numbered
	// point-to-point transit systems between continents (§6). They
	// originate no user traffic and peer only at cable landings.
	CableOp
	// Research ASes are national research & education backbones
	// (Internet2 / AMPATH / Switch analogues): universities are their
	// customers, they peer with each other and a few Tier-1s, and they
	// buy no commercial transit.
	Research
)

// String returns the class name used in reports.
func (c Class) String() string {
	switch c {
	case Tier1:
		return "Tier-1"
	case LargeISP:
		return "Large ISP"
	case SmallISP:
		return "Small ISP"
	case Stub:
		return "Stub-AS"
	case Content:
		return "Content"
	case CableOp:
		return "Cable"
	case Research:
		return "Research"
	default:
		return "None"
	}
}

// Rel is the business role of a NEIGHBOR as seen from a given AS.
// RelCustomer means "that neighbor is my customer".
type Rel int8

const (
	// RelNone means the two ASes are not adjacent.
	RelNone Rel = iota
	// RelCustomer: the neighbor pays me; cheapest (best) routes.
	RelCustomer
	// RelSibling: the neighbor is under the same organization; routes
	// are exchanged freely and rank with customer routes.
	RelSibling
	// RelPeer: settlement-free exchange of customer routes.
	RelPeer
	// RelProvider: I pay the neighbor; most expensive routes.
	RelProvider
)

// String names the relationship.
func (r Rel) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelSibling:
		return "sibling"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	default:
		return "none"
	}
}

// Rank orders relationships by Gao–Rexford preference: lower is better.
// Customer and sibling routes rank together (the paper marks decisions
// through siblings as satisfying Best), peers next, providers last.
func (r Rel) Rank() int {
	switch r {
	case RelCustomer, RelSibling:
		return 0
	case RelPeer:
		return 1
	case RelProvider:
		return 2
	default:
		return 3
	}
}

// Invert returns the relationship from the other end's point of view.
func (r Rel) Invert() Rel {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	default:
		return r
	}
}

// AS is one autonomous system of the ground truth.
type AS struct {
	ASN   asn.ASN
	Class Class
	Org   registry.OrgID
	// HomeCountry is where the AS is headquartered (and whois-registered).
	HomeCountry geo.CountryCode
	// Cities are the PoPs, in stable order; index into this slice is the
	// "city slot" used by the deterministic router address plan.
	Cities []geo.CityID
	// InfraPrefix numbers the AS's routers (never announced in BGP).
	InfraPrefix asn.Prefix
	// Prefixes are the address blocks this AS originates.
	Prefixes []asn.Prefix

	// DomesticBias: the AS raises LocalPref for routes that stay inside
	// its country when the destination is domestic (§6 "Domestic paths").
	DomesticBias bool
	// FiltersASSets: the AS drops announcements carrying AS_SET segments,
	// which blunts poisoning experiments (§4.4 Limitations).
	FiltersASSets bool
	// NoLoopPrevention: the AS fails to drop paths containing its own
	// ASN (a rare misconfiguration the paper's §4.4 notes as a poisoning
	// limitation).
	NoLoopPrevention bool
	// ContentPeerTE: the AS traffic-engineers content traffic onto its
	// settlement-free peering fabric, preferring peer routes over
	// (possibly cheaper) customer routes when the destination is a
	// content network — the Cogent-toward-Akamai behavior behind many
	// of the paper's §5 violations.
	ContentPeerTE bool
	// ResearchPreference: the AS (a university, typically) raises
	// LocalPref for any route whose AS path traverses a Research-class
	// backbone, regardless of the next hop's business relationship.
	// This produces exactly the §4.4 case-study violations (Internet2
	// preferred as "provider" over AMPATH the "peer").
	ResearchPreference bool
	// SelectiveExport restricts the neighbors a prefix is announced to
	// (origin-side prefix-specific policy, §4.3). A prefix absent from
	// the map is announced to every neighbor the export rules allow; a
	// present prefix is announced only to the listed neighbors.
	SelectiveExport map[asn.Prefix][]asn.ASN
}

// MayAnnounce reports whether the origin AS's selective-export policy
// permits announcing p to neighbor n. Export-rule filtering (customer vs
// peer routes) is the BGP engine's job; this is only the origin policy.
func (a *AS) MayAnnounce(p asn.Prefix, n asn.ASN) bool {
	allowed, restricted := a.SelectiveExport[p]
	if !restricted {
		return true
	}
	for _, x := range allowed {
		if x == n {
			return true
		}
	}
	return false
}

// HasCity reports whether the AS has a PoP in the given city.
func (a *AS) HasCity(c geo.CityID) bool {
	for _, x := range a.Cities {
		if x == c {
			return true
		}
	}
	return false
}

// citySlot returns the index of c in Cities, or -1.
func (a *AS) citySlot(c geo.CityID) int {
	for i, x := range a.Cities {
		if x == c {
			return i
		}
	}
	return -1
}

// Link is an inter-AS adjacency. Lo < Hi canonically.
type Link struct {
	Lo, Hi asn.ASN
	// HiRole is Hi's role from Lo's perspective (RelProvider: Hi is Lo's
	// provider). The opposite direction is HiRole.Invert().
	HiRole Rel
	// Cities are the interconnection points (cities where both ASes have
	// PoPs and exchange traffic).
	Cities []geo.CityID
	// HybridRoles maps an interconnection city to a DIFFERENT role Hi
	// plays there (Giotsas-style hybrid relationship). Nil for ordinary
	// links. A link with HybridRoles set routes each destination prefix
	// according to the role at the city the traffic enters.
	HybridRoles map[geo.CityID]Rel
	// PartialTransitFor, when non-nil on a link whose base role is peer,
	// lists destination prefixes for which Hi additionally provides Lo
	// full transit (partial-transit arrangement). For those prefixes the
	// effective role of Hi (from Lo) is RelProvider.
	PartialTransitFor map[asn.Prefix]bool
}

// Key returns the canonical identity of the link.
func (l *Link) Key() LinkKey { return LinkKey{l.Lo, l.Hi} }

// RoleOf returns other's role from self's perspective on this link
// (ignoring hybrid/partial overrides), or RelNone if self is not an
// endpoint.
func (l *Link) RoleOf(self, other asn.ASN) Rel {
	switch {
	case self == l.Lo && other == l.Hi:
		return l.HiRole
	case self == l.Hi && other == l.Lo:
		return l.HiRole.Invert()
	default:
		return RelNone
	}
}

// IsHybrid reports whether the link's role varies by city.
func (l *Link) IsHybrid() bool { return len(l.HybridRoles) > 0 }

// LinkKey canonically identifies a link (Lo < Hi).
type LinkKey struct{ Lo, Hi asn.ASN }

// MakeLinkKey orders the pair canonically.
func MakeLinkKey(a, b asn.ASN) LinkKey {
	if a > b {
		a, b = b, a
	}
	return LinkKey{a, b}
}

// Neighbor pairs an adjacent AS with its (base) role and the link record.
type Neighbor struct {
	ASN  asn.ASN
	Role Rel // the neighbor's role from the owning AS's perspective
	Link *Link
}

func (n Neighbor) String() string {
	return fmt.Sprintf("%s(%s)", n.ASN, n.Role)
}
