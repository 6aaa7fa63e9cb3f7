// Package complexrel plays the role of the Giotsas et al. (IMC'14)
// complex-relationship dataset the paper consumes in §4.1: a published
// list of AS pairs whose relationship is hybrid (differs by city) plus
// partial-transit arrangements.
//
// The paper does not re-derive this dataset; it downloads it. We model
// that by EXTRACTING it from ground truth at a configurable coverage —
// published datasets are never complete — so the classify stage can
// apply it exactly as §4.1 does (geolocate the interconnection, look up
// the pair+city, override the relationship).
package complexrel

import (
	"math/rand"
	"sort"

	"routelab/internal/asn"
	"routelab/internal/geo"
	"routelab/internal/topology"
)

// HybridEntry is one published hybrid relationship: at City, B's role
// from A differs from the pair's base relationship.
type HybridEntry struct {
	A, B asn.ASN
	City geo.CityID
	Role topology.Rel // B's role from A's perspective at City
}

// PartialEntry is one published partial-transit arrangement: B provides
// A transit, but only toward the listed prefixes.
type PartialEntry struct {
	A, B     asn.ASN
	Prefixes []asn.Prefix
}

// Dataset is the queryable complex-relationship collection.
type Dataset struct {
	hybrid  map[hybridKey]topology.Rel
	partial map[topology.LinkKey][]asn.Prefix
}

type hybridKey struct {
	a, b asn.ASN
	city geo.CityID
}

// New returns an empty dataset.
func New() *Dataset {
	return &Dataset{
		hybrid:  make(map[hybridKey]topology.Rel),
		partial: make(map[topology.LinkKey][]asn.Prefix),
	}
}

// AddHybrid records a hybrid entry (both directions).
func (d *Dataset) AddHybrid(e HybridEntry) {
	d.hybrid[hybridKey{e.A, e.B, e.City}] = e.Role
	d.hybrid[hybridKey{e.B, e.A, e.City}] = e.Role.Invert()
}

// AddPartial records a partial-transit entry.
func (d *Dataset) AddPartial(e PartialEntry) {
	k := topology.MakeLinkKey(e.A, e.B)
	d.partial[k] = append(d.partial[k], e.Prefixes...)
}

// HybridRole looks up b's role from a's perspective at a city.
func (d *Dataset) HybridRole(a, b asn.ASN, city geo.CityID) (topology.Rel, bool) {
	r, ok := d.hybrid[hybridKey{a, b, city}]
	return r, ok
}

// PartialTransit reports whether the pair has a published partial-
// transit arrangement covering the prefix.
func (d *Dataset) PartialTransit(a, b asn.ASN, p asn.Prefix) bool {
	for _, q := range d.partial[topology.MakeLinkKey(a, b)] {
		if q == p {
			return true
		}
	}
	return false
}

// FromGroundTruth extracts the dataset from a topology at the given
// coverage fraction (published datasets are incomplete; 1.0 means
// everything the ground truth contains).
func FromGroundTruth(topo *topology.Topology, rng *rand.Rand, coverage float64) *Dataset {
	d := New()
	var hybridLinks, partialLinks []*topology.Link
	topo.Links(func(l *topology.Link) {
		if l.IsHybrid() {
			hybridLinks = append(hybridLinks, l)
		}
		if l.PartialTransitFor != nil {
			partialLinks = append(partialLinks, l)
		}
	})
	sortLinks(hybridLinks)
	sortLinks(partialLinks)
	for _, l := range hybridLinks {
		if rng.Float64() >= coverage {
			continue
		}
		cities := make([]geo.CityID, 0, len(l.HybridRoles))
		for c := range l.HybridRoles {
			cities = append(cities, c)
		}
		sort.Slice(cities, func(i, j int) bool { return cities[i] < cities[j] })
		for _, c := range cities {
			d.AddHybrid(HybridEntry{A: l.Lo, B: l.Hi, City: c, Role: l.HybridRoles[c]})
		}
	}
	for _, l := range partialLinks {
		if rng.Float64() >= coverage {
			continue
		}
		ps := make([]asn.Prefix, 0, len(l.PartialTransitFor))
		for p := range l.PartialTransitFor {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].Addr != ps[j].Addr {
				return ps[i].Addr < ps[j].Addr
			}
			return ps[i].Len < ps[j].Len
		})
		// Hi provides Lo transit for these prefixes.
		d.AddPartial(PartialEntry{A: l.Lo, B: l.Hi, Prefixes: ps})
	}
	return d
}

func sortLinks(ls []*topology.Link) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Lo != ls[j].Lo {
			return ls[i].Lo < ls[j].Lo
		}
		return ls[i].Hi < ls[j].Hi
	})
}
