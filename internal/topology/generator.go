package topology

import (
	"fmt"
	"math/rand"
	"sort"

	"routelab/internal/asn"
	"routelab/internal/dnsdb"
	"routelab/internal/geo"
	"routelab/internal/registry"
)

// Config sizes the generated Internet and sets the rates of the policy
// phenomena the paper investigates. Rates are probabilities in [0,1].
type Config struct {
	// Scale multiplies every class count; 1.0 is the default Internet of
	// roughly 3,400 ASes. Use small values in unit tests.
	Scale float64

	NumTier1    int
	NumLargeISP int
	NumSmallISP int
	NumStub     int
	NumContent  int
	NumCableOps int

	// NumContentMajors of the content ASes are "major providers" hosting
	// the measured hostnames (the paper's 14).
	NumContentMajors int
	// NumHostnames is the number of content DNS names (the paper's 34).
	NumHostnames int
	// NumCDNCaches is how many eyeball ASes host off-net caches for the
	// major CDN (drives the 218-destination-AS effect and the Akamai
	// violation share).
	NumCDNCaches int

	// SiblingGroups is the number of multi-AS organizations.
	SiblingGroups int
	// SiblingFreemailRate is the chance a sibling org registers whois
	// contacts at a shared mail provider (hiding it from inference).
	SiblingFreemailRate float64

	// HybridLinkRate is the fraction of multi-city peer links whose
	// relationship differs by city (Giotsas hybrid).
	HybridLinkRate float64
	// PartialTransitRate is the fraction of peer links carrying a
	// partial-transit arrangement for a handful of prefixes.
	PartialTransitRate float64
	// SelectiveExportRate is the fraction of multi-homed ASes applying
	// an origin-side prefix-specific export policy to one prefix.
	SelectiveExportRate float64
	// ContentSelectiveRate is the (higher) rate at which content
	// providers restrict one of their prefixes — enterprise-class
	// services behind a chosen provider (§4.3's motivating case).
	ContentSelectiveRate float64
	// CacheSelectiveRate is the chance an off-net cache prefix is
	// announced through only a subset of the host's upstreams, the way
	// CDN on-net deployments steer traffic. These selective prefixes
	// are what concentrate unexpected decisions on CDN destinations
	// (§5's Akamai skew).
	CacheSelectiveRate float64
	// DomesticBiasRate is the fraction of ISPs preferring domestic paths.
	DomesticBiasRate float64
	// ContentPeerTERate is the fraction of transit ISPs that
	// traffic-engineer content traffic onto peering (the Cogent
	// behavior of §5).
	ContentPeerTERate float64
	// ASSetFilterRate is the fraction of ASes dropping AS_SET updates.
	ASSetFilterRate float64
	// NoLoopPreventionRate is the fraction of ASes with loop prevention
	// disabled (breaks poisoning).
	NoLoopPreventionRate float64
	// RetiredLinkCount is how many once-existing links were recently
	// decommissioned (stale-topology fodder for inference).
	RetiredLinkCount int
}

// DefaultConfig is the full-size "wild Internet" scenario.
func DefaultConfig() Config {
	return Config{
		Scale:                1.0,
		NumTier1:             12,
		NumLargeISP:          140,
		NumSmallISP:          700,
		NumStub:              2350,
		NumContent:           80,
		NumCableOps:          24,
		NumContentMajors:     14,
		NumHostnames:         34,
		NumCDNCaches:         450,
		SiblingGroups:        30,
		SiblingFreemailRate:  0.2,
		HybridLinkRate:       0.05,
		PartialTransitRate:   0.02,
		SelectiveExportRate:  0.15,
		ContentSelectiveRate: 0.7,
		CacheSelectiveRate:   0.55,
		DomesticBiasRate:     0.6,
		ContentPeerTERate:    0.5,
		ASSetFilterRate:      0.10,
		NoLoopPreventionRate: 0.01,
		RetiredLinkCount:     6,
	}
}

// TestConfig is a small topology for unit tests: same structure, ~1/10th
// the size.
func TestConfig() Config {
	c := DefaultConfig()
	c.Scale = 0.1
	return c
}

func (c Config) scaled() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	s := func(n int, min int) int {
		v := int(float64(n)*c.Scale + 0.5)
		if v < min {
			v = min
		}
		return v
	}
	// At least five Tier-1s: with fewer, every Tier-1 directly provides
	// every large ISP and no clique member ever appears ABOVE another's
	// customer edge, which starves relationship inference of its
	// strongest signal (a degenerate shape the real Internet never has).
	c.NumTier1 = s(c.NumTier1, 5)
	c.NumLargeISP = s(c.NumLargeISP, 6)
	c.NumSmallISP = s(c.NumSmallISP, 12)
	c.NumStub = s(c.NumStub, 24)
	c.NumContent = s(c.NumContent, c.NumContentMajors)
	c.NumCableOps = s(c.NumCableOps, 2)
	c.NumCDNCaches = s(c.NumCDNCaches, 4)
	if c.SiblingGroups > 0 {
		c.SiblingGroups = s(c.SiblingGroups, 2)
	}
	c.RetiredLinkCount = s(c.RetiredLinkCount, 1)
	return c
}

// generator carries the working state of one Generate call.
type generator struct {
	cfg  Config
	rng  *rand.Rand
	topo *Topology
	w    *geo.World

	nextIdx int // AS generation index (1-based); determines ASN and block
	hubs    map[geo.Continent][]geo.CityID
	// cableDependent lists large ISPs that reach other continents only
	// through undersea-cable operators.
	cableDependent []asn.ASN
}

// Generate builds a complete ground-truth Internet from a seed.
func Generate(seed int64, cfg Config) *Topology {
	cfg = cfg.scaled()
	rng := rand.New(rand.NewSource(seed))
	w := geo.NewWorld(rng, geo.Config{})
	g := &generator{
		cfg:  cfg,
		rng:  rng,
		topo: newTopology(w, registry.New(), dnsdb.New()),
		w:    w,
	}
	g.pickHubs()

	tier1s := g.makeTier1s()
	larges := g.makeLargeISPs(tier1s)
	smalls := g.makeSmallISPs(larges)
	g.makeStubs(smalls, larges)
	contents := g.makeContent(tier1s, larges, smalls)
	g.makeCableOps(larges, tier1s)
	g.makeResearch(tier1s, larges)
	g.makeSiblings()
	g.applyHybrid()
	g.applyPartialTransit()
	g.applySelectiveExport()
	g.makeContentHosting(contents)
	g.retireLinks()
	g.topo.seal()
	return g.topo
}

// pickHubs designates per-continent interconnection hub cities where the
// global players meet (the IXP metros of the synthetic world).
func (g *generator) pickHubs() {
	g.hubs = make(map[geo.Continent][]geo.CityID)
	for _, cont := range geo.Continents {
		countries := g.w.Countries(cont)
		n := 4
		if len(countries) < n {
			n = len(countries)
		}
		for i := 0; i < n; i++ {
			c := g.w.Country(countries[i])
			g.hubs[cont] = append(g.hubs[cont], c.Cities[0])
		}
	}
}

func (g *generator) allHubs() []geo.CityID {
	var out []geo.CityID
	for _, cont := range geo.Continents {
		out = append(out, g.hubs[cont]...)
	}
	return out
}

// newAS allocates the next AS with its address plan and whois record.
func (g *generator) newAS(class Class, home geo.CountryCode, cities []geo.CityID, numPrefixes int) *AS {
	g.nextIdx++
	i := g.nextIdx
	a := &AS{
		ASN:         asn.ASN(100 + i),
		Class:       class,
		HomeCountry: home,
		Cities:      dedupCities(cities),
		InfraPrefix: infraPrefixFor(i),
	}
	for j := 0; j < numPrefixes; j++ {
		a.Prefixes = append(a.Prefixes, originPrefixFor(i, j))
	}
	a.Org = registry.OrgID(fmt.Sprintf("org-%d", a.ASN))
	domain := fmt.Sprintf("as%d.example", a.ASN)
	g.topo.Registry.AddOrg(registry.Org{
		ID: a.Org, Name: fmt.Sprintf("Network %d", a.ASN),
		EmailDomains: []string{domain},
	})
	cont := g.w.Country(home).Continent
	rec := registry.ASRecord{
		ASN: a.ASN, Org: a.Org, Country: home,
		Registry: registry.RIRForContinent(cont),
		Email:    "noc@" + domain,
	}
	// Multinational ASes show different countries in other RIRs.
	if class == Tier1 || (class == LargeISP && g.rng.Float64() < 0.25) {
		rec.AltCountries = map[registry.RIR]geo.CountryCode{}
		for _, oc := range []geo.Continent{geo.EU, geo.NA, geo.AS} {
			rir := registry.RIRForContinent(oc)
			if rir == rec.Registry {
				continue
			}
			cs := g.w.Countries(oc)
			rec.AltCountries[rir] = cs[g.rng.Intn(len(cs))]
		}
	}
	if err := g.topo.Registry.AddAS(rec); err != nil {
		panic(err)
	}
	// Behavioral policy flags.
	switch class {
	case LargeISP, SmallISP:
		a.DomesticBias = g.rng.Float64() < g.cfg.DomesticBiasRate
		a.ContentPeerTE = g.rng.Float64() < g.cfg.ContentPeerTERate
	case Tier1:
		a.ContentPeerTE = g.rng.Float64() < g.cfg.ContentPeerTERate
	}
	a.FiltersASSets = g.rng.Float64() < g.cfg.ASSetFilterRate
	a.NoLoopPrevention = g.rng.Float64() < g.cfg.NoLoopPreventionRate
	g.topo.addAS(a)
	return a
}

func dedupCities(in []geo.CityID) []geo.CityID {
	seen := make(map[geo.CityID]bool, len(in))
	out := in[:0]
	for _, c := range in {
		if c != 0 && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// link connects two ASes; role is hi's role from lo's perspective after
// canonical ordering. Interconnection happens at the shared cities (PoPs
// are extended so at least one exists).
func (g *generator) link(a, b asn.ASN, roleOfBFromA Rel, maxCities int) *Link {
	lo, hi := a, b
	role := roleOfBFromA
	if lo > hi {
		lo, hi = hi, lo
		role = role.Invert()
	}
	shared := g.topo.SharedCities(lo, hi)
	if len(shared) == 0 {
		// Extend one endpoint's footprint to the other's first city.
		la, lb := g.topo.AS(lo), g.topo.AS(hi)
		c := lb.Cities[0]
		la.Cities = append(la.Cities, c)
		shared = []geo.CityID{c}
	}
	if maxCities < 1 {
		maxCities = 1
	}
	if len(shared) > maxCities {
		g.rng.Shuffle(len(shared), func(i, j int) { shared[i], shared[j] = shared[j], shared[i] })
		shared = shared[:maxCities]
	}
	cp := make([]geo.CityID, len(shared))
	copy(cp, shared)
	l := &Link{Lo: lo, Hi: hi, HiRole: role, Cities: cp}
	g.topo.addLink(l)
	return g.topo.links[l.Key()]
}

// randomCountry picks a country, optionally constrained to a continent.
func (g *generator) randomCountry(cont geo.Continent) geo.CountryCode {
	if cont == geo.ContinentNone {
		cont = geo.Continents[g.rng.Intn(len(geo.Continents))]
	}
	cs := g.w.Countries(cont)
	return cs[g.rng.Intn(len(cs))]
}

// citiesIn returns up to n distinct cities of a country (all if fewer).
func (g *generator) citiesIn(cc geo.CountryCode, n int) []geo.CityID {
	all := g.w.Country(cc).Cities
	if n >= len(all) {
		cp := make([]geo.CityID, len(all))
		copy(cp, all)
		return cp
	}
	idx := g.rng.Perm(len(all))[:n]
	out := make([]geo.CityID, 0, n)
	for _, i := range idx {
		out = append(out, all[i])
	}
	return out
}

func (g *generator) makeTier1s() []asn.ASN {
	var out []asn.ASN
	hubs := g.allHubs()
	for i := 0; i < g.cfg.NumTier1; i++ {
		home := g.randomCountry(geo.ContinentNone)
		cities := append([]geo.CityID(nil), hubs...)
		cities = append(cities, g.citiesIn(home, 2)...)
		a := g.newAS(Tier1, home, cities, 2)
		out = append(out, a.ASN)
	}
	// Full settlement-free clique.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			g.link(out[i], out[j], RelPeer, 6)
		}
	}
	return out
}

func (g *generator) makeLargeISPs(tier1s []asn.ASN) []asn.ASN {
	var out []asn.ASN
	regularByCont := map[geo.Continent][]asn.ASN{}
	for i := 0; i < g.cfg.NumLargeISP; i++ {
		cont := geo.Continents[i%len(geo.Continents)]
		home := g.randomCountry(cont)
		cities := g.citiesIn(home, 3)
		// Continental footprint: PoPs at the continent's hubs plus a
		// second country sometimes.
		cities = append(cities, g.hubs[cont]...)
		if g.rng.Float64() < 0.3 {
			cities = append(cities, g.citiesIn(g.randomCountry(cont), 2)...)
		}
		a := g.newAS(LargeISP, home, cities, 2)
		out = append(out, a.ASN)
		// On the ocean-separated continents, some large ISPs buy no
		// direct Tier-1 transit: they reach the world through a
		// regional provider plus leased undersea-cable capacity
		// (makeCableOps wires the cable side). This is what puts cable
		// ASes on real forwarding paths (§6).
		remote := cont == geo.AF || cont == geo.SA || cont == geo.OC
		if remote && len(regularByCont[cont]) > 0 && g.rng.Float64() < 0.5 {
			g.cableDependent = append(g.cableDependent, a.ASN)
			regional := regularByCont[cont]
			g.link(a.ASN, regional[g.rng.Intn(len(regional))], RelProvider, 2)
			continue
		}
		regularByCont[cont] = append(regularByCont[cont], a.ASN)
		// Providers: 2-3 Tier-1s.
		for _, t := range pickDistinct(g.rng, tier1s, 2+g.rng.Intn(2)) {
			g.link(a.ASN, t, RelProvider, 3)
		}
	}
	// Peering mesh among large ISPs, biased to the same continent.
	for _, x := range out {
		nPeers := 2 + g.rng.Intn(5)
		for k := 0; k < nPeers; k++ {
			y := out[g.rng.Intn(len(out))]
			if y == x {
				continue
			}
			// Same-continent peers are likelier to be selected.
			if g.topo.CountryOf(x) != g.topo.CountryOf(y) &&
				g.contOf(x) != g.contOf(y) && g.rng.Float64() < 0.6 {
				continue
			}
			g.link(x, y, RelPeer, 3)
		}
	}
	return out
}

func (g *generator) contOf(a asn.ASN) geo.Continent {
	return g.w.Country(g.topo.CountryOf(a)).Continent
}

func (g *generator) makeSmallISPs(larges []asn.ASN) []asn.ASN {
	var out []asn.ASN
	// Bucket large ISPs per continent for provider locality.
	byCont := map[geo.Continent][]asn.ASN{}
	for _, l := range larges {
		byCont[g.contOf(l)] = append(byCont[g.contOf(l)], l)
	}
	for i := 0; i < g.cfg.NumSmallISP; i++ {
		cont := geo.Continents[i%len(geo.Continents)]
		home := g.randomCountry(cont)
		a := g.newAS(SmallISP, home, g.citiesIn(home, 1+g.rng.Intn(3)), 2)
		out = append(out, a.ASN)
		provs := byCont[cont]
		if len(provs) == 0 {
			provs = larges
		}
		for _, p := range pickDistinct(g.rng, provs, 1+g.rng.Intn(3)) {
			g.link(a.ASN, p, RelProvider, 2)
		}
	}
	// Edge peering mesh: small ISPs in the same country often peer —
	// the "rich peering mesh near the edge" route monitors miss.
	byCountry := map[geo.CountryCode][]asn.ASN{}
	var countries []geo.CountryCode
	for _, s := range out {
		cc := g.topo.CountryOf(s)
		if byCountry[cc] == nil {
			countries = append(countries, cc)
		}
		byCountry[cc] = append(byCountry[cc], s)
	}
	sort.Slice(countries, func(i, j int) bool { return countries[i] < countries[j] })
	for _, cc := range countries {
		group := byCountry[cc]
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				if g.rng.Float64() < 0.5 {
					g.link(group[i], group[j], RelPeer, 1)
				}
			}
		}
	}
	return out
}

func (g *generator) makeStubs(smalls, larges []asn.ASN) {
	byCountry := map[geo.CountryCode][]asn.ASN{}
	for _, s := range smalls {
		byCountry[g.topo.CountryOf(s)] = append(byCountry[g.topo.CountryOf(s)], s)
	}
	byCont := map[geo.Continent][]asn.ASN{}
	for _, s := range smalls {
		byCont[g.contOf(s)] = append(byCont[g.contOf(s)], s)
	}
	largeByCont := map[geo.Continent][]asn.ASN{}
	for _, l := range larges {
		largeByCont[g.contOf(l)] = append(largeByCont[g.contOf(l)], l)
	}
	for i := 0; i < g.cfg.NumStub; i++ {
		cont := geo.Continents[i%len(geo.Continents)]
		home := g.randomCountry(cont)
		a := g.newAS(Stub, home, g.citiesIn(home, 1+g.rng.Intn(2)), 1)
		// First provider: a small ISP in-country if possible, else
		// in-continent, else a large ISP.
		var prov asn.ASN
		if cands := byCountry[home]; len(cands) > 0 {
			prov = cands[g.rng.Intn(len(cands))]
		} else if cands := byCont[cont]; len(cands) > 0 {
			prov = cands[g.rng.Intn(len(cands))]
		} else {
			cands := largeByCont[cont]
			if len(cands) == 0 {
				cands = larges
			}
			prov = cands[g.rng.Intn(len(cands))]
		}
		g.link(a.ASN, prov, RelProvider, 1)
		// ~35% multihome to a second upstream (often a large ISP).
		if g.rng.Float64() < 0.35 {
			var second asn.ASN
			if ls := largeByCont[cont]; len(ls) > 0 && g.rng.Float64() < 0.6 {
				second = ls[g.rng.Intn(len(ls))]
			} else if cands := byCont[cont]; len(cands) > 0 {
				second = cands[g.rng.Intn(len(cands))]
			}
			if second != 0 && second != prov {
				g.link(a.ASN, second, RelProvider, 1)
			}
		}
	}
}

func (g *generator) makeContent(tier1s, larges, smalls []asn.ASN) []asn.ASN {
	var out []asn.ASN
	hubs := g.allHubs()
	// Content homes skew to NA but cover every region, so probes on
	// each continent have some domestic targets (the Figure 3 split
	// depends on this).
	contentConts := []geo.Continent{
		geo.NA, geo.NA, geo.NA, geo.NA, geo.EU, geo.EU, geo.EU,
		geo.AS, geo.AS, geo.SA, geo.AF, geo.OC,
	}
	for i := 0; i < g.cfg.NumContent; i++ {
		major := i < g.cfg.NumContentMajors
		home := g.randomCountry(contentConts[i%len(contentConts)])
		var cities []geo.CityID
		cities = append(cities, g.citiesIn(home, 2)...)
		if major {
			cities = append(cities, hubs...) // majors are at every hub
		} else if g.rng.Float64() < 0.4 {
			cont := g.w.Country(home).Continent
			cities = append(cities, g.hubs[cont]...)
		}
		nPfx := 1 + g.rng.Intn(2)
		if major {
			// One regional serving prefix per continent, plus extras.
			nPfx = 6 + g.rng.Intn(3)
		}
		a := g.newAS(Content, home, cities, nPfx)
		out = append(out, a.ASN)
		if major {
			g.topo.Names[fmt.Sprintf("content-%d", i)] = a.ASN
		}
		// Transit: majors buy from Tier-1s AND regional large ISPs (the
		// multi-provider mix that gives upstream networks genuine
		// customer routes toward content — the raw material of the
		// Cogent-style traffic-engineering violations).
		if major {
			// Majors are heavily multihomed (the Akamai pattern): a
			// couple of Tier-1s plus transit from many regional large
			// ISPs, which is what gives so many networks customer
			// routes toward content.
			for _, p := range pickDistinct(g.rng, tier1s, 2) {
				g.link(a.ASN, p, RelProvider, 2)
			}
			for _, p := range pickDistinct(g.rng, larges, 6+g.rng.Intn(4)) {
				g.link(a.ASN, p, RelProvider, 2)
			}
		} else {
			provs := tier1s
			if g.rng.Float64() < 0.5 {
				provs = larges
			}
			for _, p := range pickDistinct(g.rng, provs, 1+g.rng.Intn(2)) {
				g.link(a.ASN, p, RelProvider, 2)
			}
		}
		// Rich peering: majors peer broadly with large and small ISPs.
		nPeer := 2 + g.rng.Intn(4)
		if major {
			nPeer = 10 + g.rng.Intn(8)
		}
		for _, p := range pickDistinct(g.rng, larges, nPeer) {
			g.link(a.ASN, p, RelPeer, 2)
		}
		if major {
			for _, p := range pickDistinct(g.rng, smalls, nPeer/2) {
				g.link(a.ASN, p, RelPeer, 1)
			}
		}
	}
	g.topo.Names["cdn-major"] = out[0]          // Akamai analogue (off-net CDN)
	g.topo.Names["vod-major"] = out[1%len(out)] // Netflix analogue
	return out
}

// makeCableOps creates undersea-cable operator ASes. A cable AS lands on
// two continents and sells point-to-point transit: the ISPs at each
// landing are its customers, so valley-free routing may cross the ocean
// through it. Cable ASes originate only a management prefix.
func (g *generator) makeCableOps(larges, tier1s []asn.ASN) {
	byCont := map[geo.Continent][]asn.ASN{}
	for _, l := range larges {
		byCont[g.contOf(l)] = append(byCont[g.contOf(l)], l)
	}
	pairs := [][2]geo.Continent{
		{geo.NA, geo.EU}, {geo.NA, geo.AS}, {geo.EU, geo.AS},
		{geo.NA, geo.SA}, {geo.EU, geo.AF}, {geo.AS, geo.OC},
		{geo.EU, geo.SA}, {geo.AF, geo.AS},
	}
	depByCont := map[geo.Continent][]asn.ASN{}
	for _, d := range g.cableDependent {
		depByCont[g.contOf(d)] = append(depByCont[g.contOf(d)], d)
	}
	for i := 0; i < g.cfg.NumCableOps; i++ {
		pr := pairs[i%len(pairs)]
		landA := g.hubs[pr[0]][g.rng.Intn(len(g.hubs[pr[0]]))]
		landB := g.hubs[pr[1]][g.rng.Intn(len(g.hubs[pr[1]]))]
		home := g.w.CountryOf(landA)
		a := g.newAS(CableOp, home, []geo.CityID{landA, landB}, 1)
		for _, cont := range pr {
			// Cable-dependent ISPs of this continent land first; regular
			// larges fill the remaining capacity.
			n := 2 + g.rng.Intn(3)
			var customers []asn.ASN
			customers = append(customers, pickDistinct(g.rng, depByCont[cont], n)...)
			if len(customers) < n {
				cands := byCont[cont]
				if len(cands) == 0 {
					cands = larges
				}
				customers = append(customers, pickDistinct(g.rng, cands, n-len(customers))...)
			}
			for _, c := range customers {
				g.link(c, a.ASN, RelProvider, 1) // cable is the ISP's provider
			}
		}
		// A few cables also connect a Tier-1 (jointly-used systems).
		if g.rng.Float64() < 0.3 && len(tier1s) > 0 {
			t := tier1s[g.rng.Intn(len(tier1s))]
			g.link(t, a.ASN, RelProvider, 1)
		}
	}
}

// makeResearch builds the research & education substrate that the active
// PEERING experiments run over: three continental R&E backbones, a set of
// universities multihomed to a backbone (provider) and, cross-continent,
// peered with a foreign backbone, plus the PEERING testbed AS itself,
// which buys transit from seven of the universities (its muxes).
func (g *generator) makeResearch(tier1s, larges []asn.ASN) {
	backboneConts := []geo.Continent{geo.NA, geo.EU, geo.SA}
	var backbones []asn.ASN
	for bi, cont := range backboneConts {
		home := g.randomCountry(cont)
		cities := append(g.citiesIn(home, 2), g.hubs[cont]...)
		b := g.newAS(Research, home, cities, 1)
		backbones = append(backbones, b.ASN)
		g.topo.Names[fmt.Sprintf("research-%d", bi)] = b.ASN
		// R&E backbones peer with a couple of Tier-1s for commodity
		// reachability, and with each other (below).
		for _, t := range pickDistinct(g.rng, tier1s, 2) {
			g.link(b.ASN, t, RelPeer, 2)
		}
	}
	for i := 0; i < len(backbones); i++ {
		for j := i + 1; j < len(backbones); j++ {
			g.link(backbones[i], backbones[j], RelPeer, 1)
		}
	}
	// Universities mirror the paper's mux sites: six in North America
	// and one in South America (plus a few non-mux universities
	// elsewhere). Every NA university hangs off the SAME backbone and a
	// DIFFERENT commercial large ISP, so core networks see several
	// equal-length paths toward the testbed — the tie-rich structure
	// behind the paper's intradomain observations. Some universities
	// additionally peer with a foreign backbone (the AMPATH pattern).
	largeByCont := map[geo.Continent][]asn.ASN{}
	for _, l := range larges {
		largeByCont[g.contOf(l)] = append(largeByCont[g.contOf(l)], l)
	}
	univConts := []geo.Continent{
		geo.NA, geo.NA, geo.NA, geo.NA, geo.NA, geo.NA, // the six US muxes
		geo.SA,                                 // the Brazilian mux
		geo.EU, geo.EU, geo.NA, geo.SA, geo.EU, // non-mux universities
	}
	backboneFor := map[geo.Continent]asn.ASN{
		geo.NA: backbones[0], geo.EU: backbones[1], geo.SA: backbones[2],
	}
	var univs []asn.ASN
	usedLarge := map[asn.ASN]bool{}
	for ui, cont := range univConts {
		home := g.randomCountry(cont)
		u := g.newAS(Stub, home, g.citiesIn(home, 1), 1)
		u.ResearchPreference = true
		univs = append(univs, u.ASN)
		g.topo.Names[fmt.Sprintf("univ-%d", ui)] = u.ASN
		g.link(u.ASN, backboneFor[cont], RelProvider, 1)
		if ui%3 == 2 {
			foreign := backbones[(ui+1)%len(backbones)]
			g.link(u.ASN, foreign, RelPeer, 1)
		}
		// Commodity transit from a large ISP this campus does not share
		// with the other universities, when enough exist.
		cands := largeByCont[cont]
		if len(cands) == 0 {
			cands = larges
		}
		pick := cands[g.rng.Intn(len(cands))]
		for tries := 0; usedLarge[pick] && tries < 8; tries++ {
			pick = cands[g.rng.Intn(len(cands))]
		}
		usedLarge[pick] = true
		g.link(u.ASN, pick, RelProvider, 1)
	}
	// The PEERING testbed AS: customers of seven universities (muxes).
	home := g.topo.CountryOf(univs[0])
	p := g.newAS(Stub, home, g.citiesIn(home, 1), 2)
	g.topo.Names["peering"] = p.ASN
	nMux := 7
	if nMux > len(univs) {
		nMux = len(univs)
	}
	for mi := 0; mi < nMux; mi++ {
		g.link(p.ASN, univs[mi], RelProvider, 1)
		g.topo.Names[fmt.Sprintf("mux-%d", mi)] = univs[mi]
	}
}

// makeSiblings merges existing ISP ASes into multi-AS organizations and
// interconnects them with sibling links (mergers, regional ASNs).
func (g *generator) makeSiblings() {
	cands := append(g.topo.ASesOfClass(LargeISP), g.topo.ASesOfClass(SmallISP)...)
	g.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	used := 0
	for grp := 0; grp < g.cfg.SiblingGroups && used+2 <= len(cands); grp++ {
		size := 2 + g.rng.Intn(3)
		if used+size > len(cands) {
			size = len(cands) - used
		}
		members := cands[used : used+size]
		used += size
		orgID := registry.OrgID(fmt.Sprintf("org-group-%d", grp))
		zone := fmt.Sprintf("group%d.example", grp)
		freemail := g.rng.Float64() < g.cfg.SiblingFreemailRate
		var domains []string
		for mi, m := range members {
			a := g.topo.AS(m)
			a.Org = orgID
			// Each member gets its own vanity domain; SOA ties them to
			// the shared zone (the dish.com/dishaccess.tv pattern).
			domain := fmt.Sprintf("as%d-grp%d.example", m, grp)
			if freemail {
				domain = "hotmail.example"
			} else {
				g.topo.DNS.AddSOA(dnsdb.SOARecord{Domain: domain, Zone: zone})
			}
			domains = append(domains, domain)
			rec, _ := g.topo.Registry.Whois(m)
			rec.Org = orgID
			rec.Email = fmt.Sprintf("noc%d@%s", mi, domain)
			if err := g.topo.Registry.AddAS(rec); err != nil {
				panic(err)
			}
		}
		g.topo.Registry.AddOrg(registry.Org{
			ID: orgID, Name: fmt.Sprintf("Group %d Holdings", grp),
			EmailDomains: domains,
		})
		// Interconnect members pairwise as siblings.
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if l := g.topo.Link(members[i], members[j]); l != nil {
					g.topo.setLinkRole(l, RelSibling)
				} else {
					g.link(members[i], members[j], RelSibling, 2)
				}
			}
		}
	}
}

// applyHybrid turns a fraction of multi-city ISP-to-ISP peer links into
// hybrid relationships: at one interconnection city the roles differ.
// (The published hybrid datasets are dominated by transit networks with
// region-dependent arrangements; content peering stays uniform.)
func (g *generator) applyHybrid() {
	var multi []*Link
	g.topo.Links(func(l *Link) {
		if l.HiRole == RelPeer && len(l.Cities) >= 2 &&
			g.ispClass(l.Lo) && g.ispClass(l.Hi) {
			multi = append(multi, l)
		}
	})
	sortLinks(multi)
	n := int(float64(len(multi)) * g.cfg.HybridLinkRate)
	if n == 0 && len(multi) > 0 && g.cfg.HybridLinkRate > 0 {
		n = 1 // keep the phenomenon present at test scales
	}
	g.rng.Shuffle(len(multi), func(i, j int) { multi[i], multi[j] = multi[j], multi[i] })
	for _, l := range multi[:n] {
		city := l.Cities[1+g.rng.Intn(len(l.Cities)-1)]
		role := RelCustomer
		if g.rng.Float64() < 0.5 {
			role = RelProvider
		}
		l.HybridRoles = map[geo.CityID]Rel{city: role}
	}
}

// applyPartialTransit marks a fraction of peer links as partial transit
// toward a handful of destination prefixes.
func (g *generator) applyPartialTransit() {
	var peers []*Link
	g.topo.Links(func(l *Link) {
		if l.HiRole == RelPeer && l.HybridRoles == nil &&
			g.ispClass(l.Lo) && g.ispClass(l.Hi) {
			peers = append(peers, l)
		}
	})
	sortLinks(peers)
	n := int(float64(len(peers)) * g.cfg.PartialTransitRate)
	if n == 0 && len(peers) > 0 && g.cfg.PartialTransitRate > 0 {
		n = 1
	}
	g.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	all := g.topo.OriginatedPrefixes()
	for _, l := range peers[:n] {
		set := make(map[asn.Prefix]bool)
		for k := 0; k < 2+g.rng.Intn(4); k++ {
			set[all[g.rng.Intn(len(all))]] = true
		}
		l.PartialTransitFor = set
	}
}

// applySelectiveExport installs origin-side prefix-specific policies on a
// fraction of multi-homed ASes: one prefix is announced to only a strict
// subset of neighbors.
func (g *generator) applySelectiveExport() {
	for _, a := range g.topo.ASNs() {
		x := g.topo.AS(a)
		nbrs := g.topo.Neighbors(a)
		if len(x.Prefixes) == 0 || len(nbrs) < 2 {
			continue
		}
		if g.rng.Float64() >= g.cfg.SelectiveExportRate {
			continue
		}
		p := x.Prefixes[g.rng.Intn(len(x.Prefixes))]
		// Announce to a strict subset: between 1 and len(nbrs)-1.
		k := 1 + g.rng.Intn(len(nbrs)-1)
		var allowed []asn.ASN
		for _, idx := range g.rng.Perm(len(nbrs))[:k] {
			allowed = append(allowed, nbrs[idx].ASN)
		}
		sort.Slice(allowed, func(i, j int) bool { return allowed[i] < allowed[j] })
		if x.SelectiveExport == nil {
			x.SelectiveExport = make(map[asn.Prefix][]asn.ASN)
		}
		x.SelectiveExport[p] = allowed
	}
}

// makeContentHosting creates the hostnames, serving prefixes, and off-net
// caches of the major content providers.
func (g *generator) makeContentHosting(contents []asn.ASN) {
	majors := contents
	if len(majors) > g.cfg.NumContentMajors {
		majors = majors[:g.cfg.NumContentMajors]
	}
	cdn := g.topo.Names["cdn-major"]
	vod := g.topo.Names["vod-major"]
	// Hostnames skew toward the two biggest providers, as the real
	// top-application lists do (Akamai fronts many top sites; Netflix
	// alone is a large share of downstream bytes): the CDN major gets
	// roughly 30% of names, the VOD major 15%, the rest round-robin.
	owners := make([]asn.ASN, 0, g.cfg.NumHostnames)
	for len(owners) < (g.cfg.NumHostnames*3)/10 {
		owners = append(owners, cdn)
	}
	for len(owners) < (g.cfg.NumHostnames*45)/100 {
		owners = append(owners, vod)
	}
	for i := 0; len(owners) < g.cfg.NumHostnames; i++ {
		owners = append(owners, majors[i%len(majors)])
	}
	// Majors regionalize their serving prefixes: each announced prefix
	// is pinned to one of the provider's hub PoPs, spreading the fleet
	// across continents; DNS then maps clients to their region.
	regionOf := make(map[asn.ASN][]geo.Continent)
	hubs := g.allHubs() // ordered AF, NA, EU, SA, AS, OC blocks
	perCont := len(hubs) / len(geo.Continents)
	for _, owner := range majors {
		x := g.topo.AS(owner)
		conts := make([]geo.Continent, len(x.Prefixes))
		for j, p := range x.Prefixes {
			// Stride across continent blocks so the first six prefixes
			// cover all six continents.
			city := hubs[(j%len(geo.Continents))*perCont+(j/len(geo.Continents))%perCont]
			g.topo.pinPrefix(p, city)
			g.topo.markContentPrefix(p)
			conts[j] = g.w.ContinentOf(city)
		}
		regionOf[owner] = conts
	}
	for h := 0; h < g.cfg.NumHostnames; h++ {
		owner := owners[h]
		kind := dnsdb.OnNet
		if owner == cdn {
			kind = dnsdb.OffNet
		}
		x := g.topo.AS(owner)
		err := g.topo.DNS.AddHostname(dnsdb.Hostname{
			Name:       fmt.Sprintf("host-%02d.content.example", h),
			Provider:   owner,
			Kind:       kind,
			Prefixes:   x.Prefixes,
			Continents: regionOf[owner],
		})
		if err != nil {
			panic(err)
		}
	}
	// Content majors often steer one prefix behind a chosen provider
	// (enterprise services): a concentrated source of §4.3 policies.
	for _, owner := range majors {
		if g.rng.Float64() >= g.cfg.ContentSelectiveRate {
			continue
		}
		x := g.topo.AS(owner)
		nbrs := g.topo.Neighbors(owner)
		if len(x.Prefixes) < 2 || len(nbrs) < 2 {
			continue
		}
		p := x.Prefixes[1+g.rng.Intn(len(x.Prefixes)-1)]
		if _, done := x.SelectiveExport[p]; done {
			continue
		}
		k := 1 + g.rng.Intn((len(nbrs)+1)/2)
		var allowed []asn.ASN
		for _, idx := range g.rng.Perm(len(nbrs))[:k] {
			allowed = append(allowed, nbrs[idx].ASN)
		}
		sort.Slice(allowed, func(i, j int) bool { return allowed[i] < allowed[j] })
		if x.SelectiveExport == nil {
			x.SelectiveExport = make(map[asn.Prefix][]asn.ASN)
		}
		x.SelectiveExport[p] = allowed
	}
	// Off-net caches for the CDN major: access ISPs first (their whole
	// customer cone is served from the cache — the real deployment
	// pattern), then large eyeball stubs for the remainder.
	smalls := g.topo.ASesOfClass(SmallISP)
	hosts := pickDistinct(g.rng, smalls, (g.cfg.NumCDNCaches*2)/3)
	hosts = append(hosts, pickDistinct(g.rng, g.topo.ASesOfClass(Stub), g.cfg.NumCDNCaches-len(hosts))...)
	for _, h := range hosts {
		host := g.topo.AS(h)
		idx := int(h) - 100 // invert ASN = 100 + generation index
		j := 0
		var p asn.Prefix
		for {
			p = cachePrefixFor(idx, j)
			if g.topo.prefixOrigin[p] == 0 {
				break
			}
			j++
		}
		host.Prefixes = append(host.Prefixes, p)
		g.topo.prefixOrigin[p] = h
		g.topo.pinPrefix(p, host.Cities[0])
		g.topo.markContentPrefix(p)
		g.topo.DNS.AddCache(dnsdb.Cache{Provider: cdn, HostAS: h, Prefix: p})
		// The CDN steers: many cache prefixes are announced through
		// only one chosen upstream.
		nbrs := g.topo.Neighbors(h)
		if len(nbrs) >= 2 && g.rng.Float64() < g.cfg.CacheSelectiveRate {
			if host.SelectiveExport == nil {
				host.SelectiveExport = make(map[asn.Prefix][]asn.ASN)
			}
			host.SelectiveExport[p] = []asn.ASN{nbrs[g.rng.Intn(len(nbrs))].ASN}
		}
	}
}

// retireLinks decommissions a few content peering links: they remain in
// RetiredLinks (and thus in historical snapshots) but are gone from the
// live topology. The first retiree is the vod-major's old direct link —
// the AS3549→Netflix stale-edge analogue.
func (g *generator) retireLinks() {
	vod := g.topo.Names["vod-major"]
	var victims []*Link
	// Prefer a vod-major peer link first.
	for _, n := range g.topo.Neighbors(vod) {
		if n.Role == RelPeer {
			victims = append(victims, n.Link)
			break
		}
	}
	var peers []*Link
	g.topo.Links(func(l *Link) {
		if l.HiRole == RelPeer && l.Lo != vod && l.Hi != vod &&
			l.HybridRoles == nil && l.PartialTransitFor == nil {
			peers = append(peers, l)
		}
	})
	sortLinks(peers)
	g.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	for _, l := range peers {
		if len(victims) >= g.cfg.RetiredLinkCount {
			break
		}
		victims = append(victims, l)
	}
	for _, l := range victims {
		g.removeLink(l)
		g.topo.RetiredLinks = append(g.topo.RetiredLinks, l)
	}
}

func (g *generator) removeLink(l *Link) {
	delete(g.topo.links, l.Key())
	filter := func(a, other asn.ASN) {
		ns := g.topo.neighbors[a]
		out := ns[:0]
		for _, n := range ns {
			if n.ASN != other {
				out = append(out, n)
			}
		}
		g.topo.neighbors[a] = out
	}
	filter(l.Lo, l.Hi)
	filter(l.Hi, l.Lo)
}

// ispClass reports whether the AS is a transit ISP (the population the
// published hybrid/partial-transit arrangements live in).
func (g *generator) ispClass(a asn.ASN) bool {
	switch g.topo.AS(a).Class {
	case Tier1, LargeISP, SmallISP:
		return true
	default:
		return false
	}
}

// pickDistinct samples up to n distinct elements from pool.
func pickDistinct(rng *rand.Rand, pool []asn.ASN, n int) []asn.ASN {
	if n >= len(pool) {
		cp := make([]asn.ASN, len(pool))
		copy(cp, pool)
		return cp
	}
	idx := rng.Perm(len(pool))[:n]
	out := make([]asn.ASN, 0, n)
	for _, i := range idx {
		out = append(out, pool[i])
	}
	return out
}

// sortLinks orders links canonically so that rng.Shuffle over them is
// deterministic regardless of map iteration order.
func sortLinks(ls []*Link) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Lo != ls[j].Lo {
			return ls[i].Lo < ls[j].Lo
		}
		return ls[i].Hi < ls[j].Hi
	})
}
