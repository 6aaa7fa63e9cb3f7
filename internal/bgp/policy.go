package bgp

import (
	"routelab/internal/asn"
	"routelab/internal/geo"
	"routelab/internal/topology"
)

// Local-preference bands. Relationship classes are separated by 100 so a
// single policy bonus can deliberately jump a route across one class
// boundary — which is precisely how ground-truth Gao–Rexford violations
// are born.
const (
	lpCustomer = 300
	lpPeer     = 200
	lpProvider = 100

	// lpDomesticBonus lifts a domestic route one class above its station
	// (a domestic provider route beats an international peer route).
	lpDomesticBonus = 150
	// lpResearchBonus lifts any route traversing an R&E backbone to the
	// top for ASes with ResearchPreference (universities prefer the
	// research path no matter what it costs).
	lpResearchBonus = 400
	// lpContentTEBonus lifts PEER routes toward content destinations
	// one class for ASes running content traffic engineering.
	lpContentTEBonus = 150
	// lpSiblingBonus keeps traffic on-net: routes learned from a
	// sibling are preferred one class above their organizational
	// station (mergers route internally first — the §4.2 behavior the
	// Sibs refinement explains).
	lpSiblingBonus = 120
)

// baseLocalPref maps a route's organizational class to its band.
// RelNone (an origin route relayed by a sibling) prices like a customer
// route.
func baseLocalPref(orgRel topology.Rel) int {
	switch orgRel {
	case topology.RelCustomer, topology.RelSibling, topology.RelNone:
		return lpCustomer
	case topology.RelPeer:
		return lpPeer
	default:
		return lpProvider
	}
}

// newLinkPair prices a link: at every interconnection city, each
// direction's role (the city's hybrid role where the link has one) and
// the IGP cost of reaching that egress.
func (e *Engine) newLinkPair(l *topology.Link) linkPair {
	v := linkPair{link: l}
	for _, city := range l.Cities {
		// HybridRoles stores Hi's role from Lo's perspective at the city.
		hiRole, ok := l.HybridRoles[city]
		if !ok {
			hiRole = l.HiRole
		}
		st := linkState{
			lo: adjState{city: city, rel: hiRole, igp: e.igpCost(l.Hi, l.Lo, city)},
			hi: adjState{city: city, rel: hiRole.Invert(), igp: e.igpCost(l.Lo, l.Hi, city)},
		}
		v.at[geo.ContinentNone] = append(v.at[geo.ContinentNone], st)
		if cont := e.topo.World.ContinentOf(city); len(l.Cities) > 1 && cont != geo.ContinentNone {
			v.at[cont] = append(v.at[cont], st)
		}
	}
	return v
}

// linkState is what the link's two directions contribute for one prefix
// (headed for continent cont). The interconnection city is picked
// deterministically: candidates on the destination's continent are
// preferred (operators interconnect near where the traffic is going —
// the geographic flavor of hot-potato routing); within the candidate
// set, a per-(link, prefix) hash spreads prefixes across interconnection
// points, which is what lets hybrid relationships bite for some
// destinations and not others. A partial-transit arrangement for the
// prefix overrides the city's roles: Hi provides Lo transit.
func (e *Engine) linkState(v *linkPair, prefix asn.Prefix, cont geo.Continent) (lo, hi adjState) {
	l := v.link
	cands := v.at[geo.ContinentNone]
	st := &cands[0]
	if len(cands) > 1 {
		if near := v.at[cont]; len(near) > 0 {
			cands = near
		}
		h := e.hash(uint64(l.Lo), uint64(l.Hi), uint64(prefix.Addr), uint64(prefix.Len))
		st = &cands[h%uint64(len(cands))]
	}
	lo, hi = st.lo, st.hi
	if l.PartialTransitFor[prefix] {
		lo.rel, hi.rel = topology.RelProvider, topology.RelCustomer
	}
	return lo, hi
}

// prefixContinent is the continent a prefix's traffic is headed for: a
// regional serving prefix's pinned city (interconnect near the
// servers), else the origin's home country.
func (e *Engine) prefixContinent(prefix asn.Prefix) geo.Continent {
	if city := e.topo.CityOfPrefix(prefix); city != 0 {
		return e.topo.World.ContinentOf(city)
	}
	if origin := e.topo.OriginOf(prefix); !origin.IsZero() {
		if oc := e.topo.CountryOf(origin); oc != "" {
			return e.topo.World.Country(oc).Continent
		}
	}
	return geo.ContinentNone
}

// localPref computes the local preference an AS with policy self assigns
// to a route of organizational class orgRel whose advertised path is the
// given tree node. The §6 "domestic path" condition (every AS on the
// path, origin included, homed in self's country) and R&E traversal are
// bits the path tree accumulated, evaluated on ground truth.
func (c *Computation) localPref(self asPolicy, orgRel topology.Rel, path *pnode) int32 {
	lp := int32(baseLocalPref(orgRel))
	if self.flags&polDomesticBias != 0 && path.country == self.country+1 {
		lp += lpDomesticBonus
	}
	if self.flags&polResearchPreference != 0 && path.flags&pathResearch != 0 {
		lp += lpResearchBonus
	}
	if self.flags&polContentPeerTE != 0 && orgRel == topology.RelPeer && c.contentPrefix {
		lp += lpContentTEBonus
	}
	return lp
}

// exports reports whether a route of organizational class orgRel
// (RelNone when originated) may be exported to a neighbor whose
// effective relationship is toRel. The Gao–Rexford export rule: own and
// customer routes go to everyone; peer and provider routes go only to
// customers. Siblings always receive everything (the organization
// shares its full table internally), but what THEY may re-export is
// still governed by the route's organizational class.
func exports(orgRel, toRel topology.Rel) bool {
	if toRel == topology.RelSibling {
		return true
	}
	switch orgRel {
	case topology.RelNone, topology.RelCustomer, topology.RelSibling:
		return true
	default:
		return toRel == topology.RelCustomer
	}
}

// igpCost is the deterministic pseudo-random intradomain cost from the
// AS's "default ingress" to the egress toward a neighbor. It is the
// ground truth behind the "intradomain tie-breaker" row of Table 2.
func (e *Engine) igpCost(self, nextHop asn.ASN, egress geo.CityID) uint16 {
	return uint16(e.hash(uint64(self), uint64(nextHop), uint64(egress)) % 1000)
}

// hash is a seeded 64-bit mix (splitmix64 over the running state) used
// for all deterministic-but-arbitrary choices.
func (e *Engine) hash(vals ...uint64) uint64 {
	x := uint64(e.seed) ^ 0x9e3779b97f4a7c15
	for _, v := range vals {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return x
}
