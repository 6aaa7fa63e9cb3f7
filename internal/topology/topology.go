package topology

import (
	"fmt"
	"sort"

	"routelab/internal/asn"
	"routelab/internal/dnsdb"
	"routelab/internal/geo"
	"routelab/internal/registry"
)

// Topology is the ground-truth Internet. It is explicitly read-only
// after build: Generate, Builder.Build, and Restored seal the topology,
// after which every mutator panics. Sealing is what lets the routing
// engine, the traceroute simulator, and every parallel stage (see
// internal/parallel) share one Topology across goroutines with no
// locking — concurrent readers are always safe on a sealed topology.
type Topology struct {
	World    *geo.World
	Registry *registry.Registry
	DNS      *dnsdb.DB

	ases      map[asn.ASN]*AS
	order     []asn.ASN // generation order, ascending ASN
	links     map[LinkKey]*Link
	neighbors map[asn.ASN][]Neighbor

	prefixOrigin map[asn.Prefix]asn.ASN
	infraOwner   map[asn.Prefix]asn.ASN
	// prefixCity pins an announced prefix's hosts to one city (content
	// providers announce regional serving prefixes). Unpinned prefixes
	// have hosts spread across the owner's PoPs.
	prefixCity map[asn.Prefix]geo.CityID
	// contentPrefix marks prefixes that serve content traffic (a major
	// provider's serving prefixes and off-net cache prefixes): the
	// destinations traffic-engineering policies key on.
	contentPrefix map[asn.Prefix]bool

	// Names exposes scenario handles ("cdn-major", "vod-major", ...)
	// for ASes that play a named role in experiments.
	Names map[string]asn.ASN

	// RetiredLinks existed in earlier snapshot epochs but have been
	// decommissioned; relationship inference that aggregates historical
	// snapshots may still believe in them (the paper's stale
	// AS3549–Netflix link). They are NOT part of current routing.
	RetiredLinks []*Link

	// sealed marks the topology read-only; see seal.
	sealed bool
}

// newTopology returns an empty topology bound to its substrates.
func newTopology(w *geo.World, reg *registry.Registry, dns *dnsdb.DB) *Topology {
	return &Topology{
		World:         w,
		Registry:      reg,
		DNS:           dns,
		ases:          make(map[asn.ASN]*AS),
		links:         make(map[LinkKey]*Link),
		neighbors:     make(map[asn.ASN][]Neighbor),
		prefixOrigin:  make(map[asn.Prefix]asn.ASN),
		infraOwner:    make(map[asn.Prefix]asn.ASN),
		prefixCity:    make(map[asn.Prefix]geo.CityID),
		contentPrefix: make(map[asn.Prefix]bool),
		Names:         make(map[string]asn.ASN),
	}
}

// seal marks the topology read-only. Every construction path (Generate,
// Builder.Build, Restored) calls it exactly once; after that, mutators
// panic, which is what makes lock-free concurrent reads sound.
func (t *Topology) seal() { t.sealed = true }

// mutable panics when the topology is sealed. Every generator-only
// mutator calls it first, turning a would-be data race into a loud,
// deterministic failure at the mutation site.
func (t *Topology) mutable(op string) {
	if t.sealed {
		panic("topology: " + op + " on a sealed topology (read-only after build)")
	}
}

// markContentPrefix tags a prefix as content-serving. Generator-only.
func (t *Topology) markContentPrefix(p asn.Prefix) {
	t.mutable("markContentPrefix")
	t.contentPrefix[p] = true
}

// IsContentPrefix reports whether the prefix serves content traffic
// (a major provider's serving space or a hosted cache).
func (t *Topology) IsContentPrefix(p asn.Prefix) bool {
	if t.contentPrefix[p] {
		return true
	}
	o := t.ases[t.prefixOrigin[p]]
	return o != nil && o.Class == Content
}

// pinPrefix anchors a prefix's hosts to a city (a regional serving
// prefix). Generator-only.
func (t *Topology) pinPrefix(p asn.Prefix, c geo.CityID) {
	t.mutable("pinPrefix")
	t.prefixCity[p] = c
}

// CityOfPrefix returns the pinned city of a prefix, or 0.
func (t *Topology) CityOfPrefix(p asn.Prefix) geo.CityID { return t.prefixCity[p] }

// addAS inserts an AS; panics on duplicates (generator bug, not runtime
// condition).
func (t *Topology) addAS(a *AS) {
	t.mutable("addAS")
	if _, dup := t.ases[a.ASN]; dup {
		panic(fmt.Sprintf("topology: duplicate %s", a.ASN))
	}
	t.ases[a.ASN] = a
	t.order = append(t.order, a.ASN)
	for _, p := range a.Prefixes {
		t.prefixOrigin[p] = a.ASN
	}
	if !a.InfraPrefix.IsZero() {
		t.infraOwner[a.InfraPrefix] = a.ASN
	}
}

// addLink inserts a link and indexes both neighbor lists.
func (t *Topology) addLink(l *Link) {
	t.mutable("addLink")
	if l.Lo > l.Hi {
		panic("topology: link endpoints not canonical")
	}
	k := l.Key()
	if _, dup := t.links[k]; dup {
		return // generator may propose the same pair twice; keep first
	}
	t.links[k] = l
	t.neighbors[l.Lo] = append(t.neighbors[l.Lo], Neighbor{ASN: l.Hi, Role: l.HiRole, Link: l})
	t.neighbors[l.Hi] = append(t.neighbors[l.Hi], Neighbor{ASN: l.Lo, Role: l.HiRole.Invert(), Link: l})
}

// Restored returns a historical view of the topology as it was before
// any links were retired: AS records, registries, and prefix tables are
// shared with the receiver; the link and neighbor indexes are rebuilt to
// include RetiredLinks. Routing computed over the restored view is what
// old snapshots (and therefore stale relationship databases) saw.
func (t *Topology) Restored() *Topology {
	h := &Topology{
		World:         t.World,
		Registry:      t.Registry,
		DNS:           t.DNS,
		ases:          t.ases,
		order:         t.order,
		links:         make(map[LinkKey]*Link, len(t.links)+len(t.RetiredLinks)),
		neighbors:     make(map[asn.ASN][]Neighbor, len(t.neighbors)),
		prefixOrigin:  t.prefixOrigin,
		infraOwner:    t.infraOwner,
		prefixCity:    t.prefixCity,
		contentPrefix: t.contentPrefix,
		Names:         t.Names,
	}
	// Rebuild in canonical order: neighbor-list order feeds the routing
	// engine's event clock, so it must not depend on map iteration.
	all := make([]*Link, 0, len(t.links)+len(t.RetiredLinks))
	for _, l := range t.links {
		all = append(all, l)
	}
	all = append(all, t.RetiredLinks...)
	sortLinks(all)
	for _, l := range all {
		h.addLink(l)
	}
	h.seal()
	return h
}

// setLinkRole rewrites a link's base relationship, keeping the cached
// neighbor entries consistent. Generator-only; the topology is immutable
// once Generate returns.
func (t *Topology) setLinkRole(l *Link, hiRole Rel) {
	t.mutable("setLinkRole")
	l.HiRole = hiRole
	fix := func(owner, other asn.ASN, role Rel) {
		ns := t.neighbors[owner]
		for i := range ns {
			if ns[i].ASN == other {
				ns[i].Role = role
			}
		}
	}
	fix(l.Lo, l.Hi, hiRole)
	fix(l.Hi, l.Lo, hiRole.Invert())
}

// AS returns the AS record, or nil.
func (t *Topology) AS(a asn.ASN) *AS { return t.ases[a] }

// ASNs returns every ASN in ascending order. The returned slice is shared;
// callers must not modify it.
func (t *Topology) ASNs() []asn.ASN { return t.order }

// NumASes returns the AS count.
func (t *Topology) NumASes() int { return len(t.ases) }

// NumLinks returns the live link count.
func (t *Topology) NumLinks() int { return len(t.links) }

// Link returns the link between two ASes, or nil.
func (t *Topology) Link(a, b asn.ASN) *Link { return t.links[MakeLinkKey(a, b)] }

// Links calls fn for every live link in an unspecified order.
func (t *Topology) Links(fn func(*Link)) {
	for _, l := range t.links {
		fn(l)
	}
}

// ProposeLink validates a would-be adjacency against the sealed graph
// and returns a canonical candidate Link for it. The topology itself is
// never touched — the result is not registered anywhere; the what-if
// engine attaches it to a single bgp computation (new-peering delta).
// roleOfB is b's role from a's perspective, so
// ProposeLink(a, b, r) ≡ ProposeLink(b, a, r.Invert()) exactly, down to
// the interconnection-city order. Errors: a == b, unknown AS, bad role,
// already adjacent, or no shared interconnection city.
func (t *Topology) ProposeLink(a, b asn.ASN, roleOfB Rel) (*Link, error) {
	if a == b {
		return nil, fmt.Errorf("topology: propose link %s-%s: an AS cannot peer with itself", a, b)
	}
	if t.ases[a] == nil {
		return nil, fmt.Errorf("topology: propose link: no such AS: %s", a)
	}
	if t.ases[b] == nil {
		return nil, fmt.Errorf("topology: propose link: no such AS: %s", b)
	}
	switch roleOfB {
	case RelCustomer, RelSibling, RelPeer, RelProvider:
	default:
		return nil, fmt.Errorf("topology: propose link %s-%s: bad role", a, b)
	}
	if t.Link(a, b) != nil {
		return nil, fmt.Errorf("topology: propose link %s-%s: already adjacent", a, b)
	}
	l := &Link{Lo: a, Hi: b, HiRole: roleOfB}
	if a > b {
		l.Lo, l.Hi = b, a
		l.HiRole = roleOfB.Invert()
	}
	// Cities come from the canonical (Lo, Hi) orientation so the two
	// argument orders build byte-identical links.
	l.Cities = t.SharedCities(l.Lo, l.Hi)
	if len(l.Cities) == 0 {
		return nil, fmt.Errorf("topology: propose link %s-%s: no shared interconnection city", a, b)
	}
	return l, nil
}

// Neighbors returns the adjacency list of an AS. The slice is shared;
// callers must not modify it.
func (t *Topology) Neighbors(a asn.ASN) []Neighbor { return t.neighbors[a] }

// Rel returns b's role from a's perspective (base relationship), or
// RelNone when not adjacent.
func (t *Topology) Rel(a, b asn.ASN) Rel {
	l := t.Link(a, b)
	if l == nil {
		return RelNone
	}
	return l.RoleOf(a, b)
}

// OriginOf returns the AS originating a prefix, or 0.
func (t *Topology) OriginOf(p asn.Prefix) asn.ASN { return t.prefixOrigin[p] }

// OriginatedPrefixes returns all originated prefixes sorted by address.
func (t *Topology) OriginatedPrefixes() []asn.Prefix {
	out := make([]asn.Prefix, 0, len(t.prefixOrigin))
	for p := range t.prefixOrigin {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Len < out[j].Len
	})
	return out
}

// ASesOfClass returns ASNs of a class in ascending order.
func (t *Topology) ASesOfClass(c Class) []asn.ASN {
	var out []asn.ASN
	for _, a := range t.order {
		if t.ases[a].Class == c {
			out = append(out, a)
		}
	}
	return out
}

// IsCableAS reports whether the AS is an undersea-cable operator.
func (t *Topology) IsCableAS(a asn.ASN) bool {
	x := t.ases[a]
	return x != nil && x.Class == CableOp
}

// CountryOf returns the home country of an AS, or "".
func (t *Topology) CountryOf(a asn.ASN) geo.CountryCode {
	if x := t.ases[a]; x != nil {
		return x.HomeCountry
	}
	return ""
}

// SharedCities returns the cities where both ASes have PoPs.
func (t *Topology) SharedCities(a, b asn.ASN) []geo.CityID {
	x, y := t.ases[a], t.ases[b]
	if x == nil || y == nil {
		return nil
	}
	var out []geo.CityID
	for _, c := range x.Cities {
		if y.HasCity(c) {
			out = append(out, c)
		}
	}
	return out
}

// Orgs returns the map org → member ASNs (sorted), built from AS records.
// Sibling inference ground truth.
func (t *Topology) Orgs() map[registry.OrgID][]asn.ASN {
	m := make(map[registry.OrgID][]asn.ASN)
	for _, a := range t.order {
		o := t.ases[a].Org
		if o != "" {
			m[o] = append(m[o], a)
		}
	}
	return m
}
