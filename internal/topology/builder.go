package topology

import (
	"fmt"
	"math/rand"

	"routelab/internal/asn"
	"routelab/internal/dnsdb"
	"routelab/internal/geo"
	"routelab/internal/registry"
)

// Builder assembles small, explicit topologies by hand — the tool used
// in unit tests, fixtures for the paper's §4.4 case studies, and the
// quickstart example. Generated production topologies come from Generate.
type Builder struct {
	topo *Topology
	idx  map[asn.ASN]int // ASN -> address-plan index
}

// NewBuilder starts a builder over a default world (so countries and
// cities are available) with empty registry and DNS databases.
func NewBuilder() *Builder {
	w := geo.NewWorld(rand.New(rand.NewSource(1)), geo.Config{})
	return &Builder{
		topo: newTopology(w, registry.New(), dnsdb.New()),
		idx:  make(map[asn.ASN]int),
	}
}

// World returns the builder's world for city/country lookups.
func (b *Builder) World() *geo.World { return b.topo.World }

// AS adds an AS homed in the given country (empty selects the world's
// first country) with a PoP in that country's first city, one originated
// prefix, and a whois record. The returned record may be customized
// (extra cities, policy flags, more prefixes via AddPrefix) before Build.
func (b *Builder) AS(a asn.ASN, class Class, country geo.CountryCode) *AS {
	if country == "" {
		country = b.topo.World.AllCountries()[0]
	}
	c := b.topo.World.Country(country)
	if c == nil {
		panic(fmt.Sprintf("builder: unknown country %q", country))
	}
	i := len(b.idx) + 1
	b.idx[a] = i
	x := &AS{
		ASN:         a,
		Class:       class,
		Org:         registry.OrgID(fmt.Sprintf("org-%d", a)),
		HomeCountry: country,
		Cities:      []geo.CityID{c.Cities[0]},
		InfraPrefix: infraPrefixFor(i),
		Prefixes:    []asn.Prefix{originPrefixFor(i, 0)},
	}
	b.topo.Registry.AddOrg(registry.Org{ID: x.Org, Name: a.String(),
		EmailDomains: []string{fmt.Sprintf("as%d.example", a)}})
	if err := b.topo.Registry.AddAS(registry.ASRecord{
		ASN: a, Org: x.Org, Country: country,
		Registry: registry.RIRForContinent(c.Continent),
		Email:    fmt.Sprintf("noc@as%d.example", a),
	}); err != nil {
		panic(err)
	}
	b.topo.addAS(x)
	return x
}

// AddPrefix originates one more prefix at an existing AS and returns it.
func (b *Builder) AddPrefix(a asn.ASN) asn.Prefix {
	x := b.topo.AS(a)
	if x == nil {
		panic(fmt.Sprintf("builder: unknown %s", a))
	}
	p := originPrefixFor(b.idx[a], len(x.Prefixes))
	x.Prefixes = append(x.Prefixes, p)
	b.topo.prefixOrigin[p] = a
	return p
}

// Link connects x and y; roleOfY is y's role from x's perspective.
// Interconnection cities default to the shared PoPs (extending x's
// footprint to y's first city when there is no overlap).
func (b *Builder) Link(x, y asn.ASN, roleOfY Rel, cities ...geo.CityID) *Link {
	xs, ys := b.topo.AS(x), b.topo.AS(y)
	if xs == nil || ys == nil {
		panic("builder: link endpoints must be added first")
	}
	if len(cities) == 0 {
		cities = b.topo.SharedCities(x, y)
		if len(cities) == 0 {
			xs.Cities = append(xs.Cities, ys.Cities[0])
			cities = []geo.CityID{ys.Cities[0]}
		}
	} else {
		for _, c := range cities {
			if !xs.HasCity(c) {
				xs.Cities = append(xs.Cities, c)
			}
			if !ys.HasCity(c) {
				ys.Cities = append(ys.Cities, c)
			}
		}
	}
	lo, hi := x, y
	role := roleOfY
	if lo > hi {
		lo, hi = hi, lo
		role = role.Invert()
	}
	l := &Link{Lo: lo, Hi: hi, HiRole: role, Cities: append([]geo.CityID(nil), cities...)}
	b.topo.addLink(l)
	return b.topo.links[l.Key()]
}

// Build seals and returns the topology: it is read-only from here on
// (mutators panic), which makes it safe to share across goroutines.
// Build is idempotent; builder methods must not be called after it.
func (b *Builder) Build() *Topology {
	b.topo.seal()
	return b.topo
}
