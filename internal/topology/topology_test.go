package topology

import (
	"testing"

	"routelab/internal/asn"
	"routelab/internal/geo"
)

// testTopo caches a small generated topology for the whole test package.
var testTopo = Generate(42, TestConfig())

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(7, TestConfig())
	b := Generate(7, TestConfig())
	if a.NumASes() != b.NumASes() || a.NumLinks() != b.NumLinks() {
		t.Fatalf("same seed differs: %d/%d ASes, %d/%d links",
			a.NumASes(), b.NumASes(), a.NumLinks(), b.NumLinks())
	}
	for _, x := range a.ASNs() {
		av, bv := a.AS(x), b.AS(x)
		if av.Class != bv.Class || av.HomeCountry != bv.HomeCountry ||
			len(av.Cities) != len(bv.Cities) || len(av.Prefixes) != len(bv.Prefixes) {
			t.Fatalf("AS %s differs between identical seeds", x)
		}
	}
	c := Generate(8, TestConfig())
	if a.NumLinks() == c.NumLinks() && a.NumASes() == c.NumASes() {
		// Extremely unlikely to match exactly on both counts.
		t.Log("warning: different seeds produced identical counts")
	}
}

// TestSealedTopologyRejectsMutation pins the runtime half of the
// read-only contract: the mutators are unexported (the compile-time
// half), and each still panics once Generate has sealed the topology.
func TestSealedTopologyRejectsMutation(t *testing.T) {
	p := testTopo.AS(testTopo.ASNs()[0]).Prefixes[0]
	for name, mutate := range map[string]func(){
		"markContentPrefix": func() { testTopo.markContentPrefix(p) },
		"pinPrefix":         func() { testTopo.pinPrefix(p, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a sealed topology did not panic", name)
				}
			}()
			mutate()
		}()
	}
}

func TestClassCounts(t *testing.T) {
	cfg := TestConfig().scaled()
	counts := map[Class]int{}
	for _, a := range testTopo.ASNs() {
		counts[testTopo.AS(a).Class]++
	}
	if counts[Tier1] != cfg.NumTier1 {
		t.Errorf("Tier1 = %d, want %d", counts[Tier1], cfg.NumTier1)
	}
	// Universities and the PEERING AS are generated as extra stubs.
	if counts[Stub] != cfg.NumStub+12+1 {
		t.Errorf("Stub = %d, want %d", counts[Stub], cfg.NumStub+13)
	}
	if counts[CableOp] != cfg.NumCableOps {
		t.Errorf("CableOp = %d, want %d", counts[CableOp], cfg.NumCableOps)
	}
}

func TestTier1Clique(t *testing.T) {
	t1 := testTopo.ASesOfClass(Tier1)
	for i := 0; i < len(t1); i++ {
		for j := i + 1; j < len(t1); j++ {
			rel := testTopo.Rel(t1[i], t1[j])
			// Sibling conversion can only touch ISP classes, so every
			// Tier-1 pair must be plain peers.
			if rel != RelPeer {
				t.Errorf("%s-%s: rel %s, want peer", t1[i], t1[j], rel)
			}
		}
	}
}

// Every non-Tier1, non-cable AS must have a strictly-upward provider
// chain reaching the Tier-1 clique, or routing cannot be complete.
func TestProviderChainsReachTier1(t *testing.T) {
	// BFS downward from Tier-1s along provider->customer edges.
	reached := map[asn.ASN]bool{}
	var queue []asn.ASN
	for _, a := range testTopo.ASesOfClass(Tier1) {
		reached[a] = true
		queue = append(queue, a)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range testTopo.Neighbors(cur) {
			if (n.Role == RelCustomer || n.Role == RelSibling) && !reached[n.ASN] {
				reached[n.ASN] = true
				queue = append(queue, n.ASN)
			}
		}
	}
	missing := 0
	for _, a := range testTopo.ASNs() {
		if c := testTopo.AS(a).Class; c == CableOp || c == Research {
			continue // cables and R&E backbones sit outside the cone by design
		}
		if !reached[a] {
			missing++
			if missing < 5 {
				t.Errorf("%s (%s) unreachable from Tier-1 via customer edges",
					a, testTopo.AS(a).Class)
			}
		}
	}
	if missing > 0 {
		t.Fatalf("%d ASes outside the Tier-1 customer cone", missing)
	}
}

// The customer-provider graph must be acyclic or BGP simulation diverges.
func TestNoCustomerProviderCycles(t *testing.T) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[asn.ASN]int{}
	var visit func(a asn.ASN) bool
	visit = func(a asn.ASN) bool {
		color[a] = gray
		for _, n := range testTopo.Neighbors(a) {
			if n.Role != RelProvider {
				continue // follow customer->provider edges only
			}
			switch color[n.ASN] {
			case gray:
				return false
			case white:
				if !visit(n.ASN) {
					return false
				}
			}
		}
		color[a] = black
		return true
	}
	for _, a := range testTopo.ASNs() {
		if color[a] == white {
			if !visit(a) {
				t.Fatal("customer-provider cycle detected")
			}
		}
	}
}

func TestLinksHaveInterconnectionCities(t *testing.T) {
	testTopo.Links(func(l *Link) {
		if len(l.Cities) == 0 {
			t.Errorf("link %s-%s has no interconnection city", l.Lo, l.Hi)
			return
		}
		for _, c := range l.Cities {
			if !testTopo.AS(l.Lo).HasCity(c) || !testTopo.AS(l.Hi).HasCity(c) {
				t.Errorf("link %s-%s city %d not a PoP of both ends", l.Lo, l.Hi, c)
			}
		}
	})
}

func TestRelSymmetry(t *testing.T) {
	testTopo.Links(func(l *Link) {
		if testTopo.Rel(l.Lo, l.Hi) != testTopo.Rel(l.Hi, l.Lo).Invert() {
			t.Errorf("asymmetric rel on %s-%s", l.Lo, l.Hi)
		}
	})
	if testTopo.Rel(101, 99999) != RelNone {
		t.Error("non-adjacent pair should be RelNone")
	}
}

func TestNeighborRolesMatchLinks(t *testing.T) {
	for _, a := range testTopo.ASNs() {
		for _, n := range testTopo.Neighbors(a) {
			if got := n.Link.RoleOf(a, n.ASN); got != n.Role {
				t.Fatalf("%s neighbor %s: cached role %s != link role %s",
					a, n.ASN, n.Role, got)
			}
		}
	}
}

func TestSiblingGroupsShareOrg(t *testing.T) {
	orgs := testTopo.Orgs()
	multi := 0
	for _, members := range orgs {
		if len(members) < 2 {
			continue
		}
		multi++
		// Sibling members must be pairwise connected with sibling links.
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if testTopo.Rel(members[i], members[j]) != RelSibling {
					t.Errorf("org members %s-%s not sibling-linked",
						members[i], members[j])
				}
			}
		}
	}
	if multi == 0 {
		t.Fatal("no multi-AS organizations generated")
	}
}

func TestAddressPlanInvertible(t *testing.T) {
	for _, a := range testTopo.ASNs() {
		x := testTopo.AS(a)
		for ci, city := range x.Cities {
			ip := testTopo.RouterIP(a, city, ci%routersPerCity)
			if ip == 0 {
				t.Fatalf("%s has no router IP in city %d", a, city)
			}
			owner, gotCity, ok := testTopo.LocateRouter(ip)
			if !ok || owner != a || gotCity != city {
				t.Fatalf("LocateRouter(%v) = %v,%v,%v; want %v,%v",
					ip, owner, gotCity, ok, a, city)
			}
		}
	}
}

func TestRouterIPBounds(t *testing.T) {
	a := testTopo.ASNs()[0]
	city := testTopo.AS(a).Cities[0]
	if testTopo.RouterIP(a, city, -1) != 0 || testTopo.RouterIP(a, city, routersPerCity) != 0 {
		t.Error("out-of-range router index should yield 0")
	}
	if testTopo.RouterIP(a, geo.CityID(60000), 0) != 0 {
		t.Error("unknown city should yield 0")
	}
	if testTopo.RouterIP(99999, city, 0) != 0 {
		t.Error("unknown AS should yield 0")
	}
}

func TestASByAddrResolvesAnnounced(t *testing.T) {
	for _, a := range testTopo.ASNs() {
		for _, p := range testTopo.AS(a).Prefixes {
			if got := testTopo.ASByAddr(p.Nth(13)); got != a {
				t.Fatalf("ASByAddr inside %s = %v, want %v", p, got, a)
			}
		}
	}
	// Infra addresses resolve through the covering /18 to their owner.
	a := testTopo.ASNs()[0]
	infra := testTopo.AS(a).InfraPrefix
	if got := testTopo.ASByAddr(infra.Nth(1)); got != a {
		t.Errorf("infrastructure address resolved to %v, want owner %v", got, a)
	}
	if testTopo.ASByAddr(IXPPrefix(1).Nth(9)) != 0 {
		t.Error("IXP address resolved via BGP prefix table")
	}
}

func TestCoveringPrefixContainsInfra(t *testing.T) {
	for _, a := range testTopo.ASNs()[:40] {
		x := testTopo.AS(a)
		if len(x.Prefixes) == 0 {
			continue
		}
		if !x.Prefixes[0].ContainsPrefix(x.InfraPrefix) {
			t.Fatalf("%s first prefix %s does not cover infra %s", a, x.Prefixes[0], x.InfraPrefix)
		}
		// Host offsets stay clear of the infrastructure block.
		if x.InfraPrefix.Contains(x.Prefixes[0].Nth(HostOffset(0))) {
			t.Fatal("host offset landed inside the infrastructure /24")
		}
	}
}

func TestIXPAddrSpace(t *testing.T) {
	if !IsIXPAddr(IXPPrefix(5).Nth(3)) {
		t.Error("IXP prefix address not recognized")
	}
	if IsIXPAddr(asn.AddrFrom4(10, 0, 0, 1)) {
		t.Error("ordinary address misdetected as IXP")
	}
}

func TestNamedHandles(t *testing.T) {
	for _, name := range []string{"cdn-major", "vod-major"} {
		a, ok := testTopo.Names[name]
		if !ok || testTopo.AS(a) == nil {
			t.Fatalf("missing named AS %q", name)
		}
		if testTopo.AS(a).Class != Content {
			t.Errorf("%q should be a content AS", name)
		}
	}
}

func TestResearchSubstrate(t *testing.T) {
	peering, ok := testTopo.Names["peering"]
	if !ok {
		t.Fatal("no peering testbed AS")
	}
	if len(testTopo.AS(peering).Prefixes) < 2 {
		t.Error("peering AS should own at least two experiment prefixes")
	}
	muxes := 0
	for i := 0; ; i++ {
		mux, ok := testTopo.Names["mux-"+string(rune('0'+i))]
		if !ok {
			break
		}
		muxes++
		if testTopo.Rel(peering, mux) != RelProvider {
			t.Errorf("mux %s is not a provider of the peering AS", mux)
		}
		if !testTopo.AS(mux).ResearchPreference {
			t.Errorf("mux university %s lacks research preference", mux)
		}
	}
	if muxes != 7 {
		t.Errorf("found %d muxes, want 7", muxes)
	}
	backbones := testTopo.ASesOfClass(Research)
	if len(backbones) != 3 {
		t.Fatalf("%d research backbones, want 3", len(backbones))
	}
	for _, b := range backbones {
		for _, n := range testTopo.Neighbors(b) {
			if n.Role == RelProvider {
				t.Errorf("research backbone %s buys transit from %s", b, n.ASN)
			}
		}
	}
}

func TestCDNCachesHosted(t *testing.T) {
	cdn := testTopo.Names["cdn-major"]
	hosts := testTopo.DNS.CacheHosts(cdn)
	if len(hosts) == 0 {
		t.Fatal("cdn-major has no off-net caches")
	}
	for _, h := range hosts {
		host := testTopo.AS(h)
		if host.Class != Stub && host.Class != SmallISP {
			t.Errorf("cache host %s has class %s, want eyeball", h, host.Class)
		}
		// The cache prefix is announced by the HOST, not the CDN.
		found := false
		for _, p := range host.Prefixes {
			if testTopo.OriginOf(p) == h && p.Addr >= asBlock(int(h)-100).Addr {
				found = true
			}
		}
		if !found {
			t.Errorf("cache host %s does not announce a cache prefix", h)
		}
	}
}

func TestRetiredLinksAbsentFromLive(t *testing.T) {
	if len(testTopo.RetiredLinks) == 0 {
		t.Fatal("no retired links generated")
	}
	for _, l := range testTopo.RetiredLinks {
		if testTopo.Link(l.Lo, l.Hi) != nil {
			t.Errorf("retired link %s-%s still live", l.Lo, l.Hi)
		}
		for _, n := range testTopo.Neighbors(l.Lo) {
			if n.ASN == l.Hi {
				t.Errorf("retired link %s-%s still in neighbor list", l.Lo, l.Hi)
			}
		}
	}
	vod := testTopo.Names["vod-major"]
	if l := testTopo.RetiredLinks[0]; l.Lo != vod && l.Hi != vod {
		t.Error("first retired link should touch vod-major (the stale-edge fixture)")
	}
}

func TestHybridAndPartialTransitPresent(t *testing.T) {
	hybrid, partial := 0, 0
	testTopo.Links(func(l *Link) {
		if l.IsHybrid() {
			hybrid++
			for c, r := range l.HybridRoles {
				found := false
				for _, lc := range l.Cities {
					if lc == c {
						found = true
					}
				}
				if !found {
					t.Errorf("hybrid city %d not an interconnection city", c)
				}
				if r == l.HiRole {
					t.Error("hybrid role equals base role — not hybrid")
				}
			}
		}
		if l.PartialTransitFor != nil {
			partial++
			if l.HiRole != RelPeer {
				t.Error("partial transit on a non-peer link")
			}
		}
	})
	if hybrid == 0 {
		t.Error("no hybrid links generated")
	}
	if partial == 0 {
		t.Error("no partial-transit links generated")
	}
}

func TestSelectiveExportStrictSubset(t *testing.T) {
	found := 0
	for _, a := range testTopo.ASNs() {
		x := testTopo.AS(a)
		for p, allowed := range x.SelectiveExport {
			found++
			if len(allowed) == 0 || len(allowed) >= len(testTopo.Neighbors(a)) {
				t.Errorf("%s selective export for %s not a strict subset", a, p)
			}
			if !x.MayAnnounce(p, allowed[0]) {
				t.Error("MayAnnounce denies an allowed neighbor")
			}
			denied := asn.ASN(99999)
			if x.MayAnnounce(p, denied) {
				t.Error("MayAnnounce allows an unlisted neighbor")
			}
		}
		// Unrestricted prefixes are announced to anyone.
		if len(x.Prefixes) > 0 {
			free := x.Prefixes[len(x.Prefixes)-1]
			if _, restricted := x.SelectiveExport[free]; !restricted {
				if !x.MayAnnounce(free, 12345) {
					t.Error("unrestricted prefix refused")
				}
			}
		}
	}
	if found == 0 {
		t.Error("no selective-export policies generated")
	}
}

func TestCableOpsSpanContinents(t *testing.T) {
	for _, a := range testTopo.ASesOfClass(CableOp) {
		x := testTopo.AS(a)
		if len(x.Cities) < 2 {
			t.Fatalf("cable %s has fewer than two landings", a)
		}
		if !testTopo.World.Intercontinental(x.Cities[0], x.Cities[1]) {
			t.Errorf("cable %s landings on same continent", a)
		}
		// Landings are customers of the cable.
		for _, n := range testTopo.Neighbors(a) {
			if n.Role != RelCustomer {
				t.Errorf("cable %s neighbor %s has role %s, want customer", a, n.ASN, n.Role)
			}
		}
	}
}

func TestWhoisCoverage(t *testing.T) {
	for _, a := range testTopo.ASNs() {
		rec, ok := testTopo.Registry.Whois(a)
		if !ok {
			t.Fatalf("no whois record for %s", a)
		}
		if rec.Country != testTopo.AS(a).HomeCountry {
			t.Errorf("%s whois country %s != home %s", a, rec.Country, testTopo.AS(a).HomeCountry)
		}
		if rec.EmailDomain() == "" {
			t.Errorf("%s has no contact e-mail domain", a)
		}
	}
}

func TestRelHelpers(t *testing.T) {
	if RelCustomer.Invert() != RelProvider || RelProvider.Invert() != RelCustomer {
		t.Error("customer/provider inversion")
	}
	if RelPeer.Invert() != RelPeer || RelSibling.Invert() != RelSibling {
		t.Error("peer/sibling are self-inverse")
	}
	if RelCustomer.Rank() != 0 || RelSibling.Rank() != 0 || RelPeer.Rank() != 1 || RelProvider.Rank() != 2 {
		t.Error("rank ordering broken")
	}
	if RelNone.Rank() <= RelProvider.Rank() {
		t.Error("RelNone must rank worst")
	}
}

func TestHostnamesGenerated(t *testing.T) {
	cfg := TestConfig().scaled()
	hs := testTopo.DNS.Hostnames()
	if len(hs) != cfg.NumHostnames {
		t.Fatalf("%d hostnames, want %d", len(hs), cfg.NumHostnames)
	}
	majors := map[asn.ASN]bool{}
	for _, h := range hs {
		majors[h.Provider] = true
		if testTopo.AS(h.Provider) == nil {
			t.Errorf("hostname %s has unknown provider", h.Name)
		}
	}
	if len(majors) != cfg.NumContentMajors {
		t.Errorf("%d distinct providers, want %d", len(majors), cfg.NumContentMajors)
	}
}

func TestContentPrefixTagging(t *testing.T) {
	cdn := testTopo.Names["cdn-major"]
	for _, p := range testTopo.AS(cdn).Prefixes {
		if !testTopo.IsContentPrefix(p) {
			t.Errorf("major serving prefix %s not tagged as content", p)
		}
		if testTopo.CityOfPrefix(p) == 0 {
			t.Errorf("major serving prefix %s not regionally pinned", p)
		}
	}
	// Cache prefixes are content too, even though their origin is an
	// eyeball AS.
	hosts := testTopo.DNS.CacheHosts(cdn)
	if len(hosts) == 0 {
		t.Fatal("no caches")
	}
	host := testTopo.AS(hosts[0])
	cachePfx := host.Prefixes[len(host.Prefixes)-1]
	if !testTopo.IsContentPrefix(cachePfx) {
		t.Errorf("cache prefix %s not tagged as content", cachePfx)
	}
	// Ordinary eyeball space is not content.
	stub := testTopo.ASesOfClass(Stub)[0]
	if testTopo.IsContentPrefix(testTopo.AS(stub).Prefixes[0]) {
		t.Error("plain stub prefix tagged as content")
	}
}

func TestContentMajorsHeavilyMultihomed(t *testing.T) {
	for i := 0; ; i++ {
		name := "content-" + string(rune('0'+i))
		a, ok := testTopo.Names[name]
		if !ok {
			if i == 0 {
				t.Fatal("no content majors")
			}
			return
		}
		providers := 0
		for _, n := range testTopo.Neighbors(a) {
			if n.Role == RelProvider {
				providers++
			}
		}
		if providers < 5 {
			t.Errorf("%s has only %d providers; majors are heavily multihomed", name, providers)
		}
		if i >= 9 {
			return
		}
	}
}

func TestPolicyFlagsPresent(t *testing.T) {
	te, domestic := 0, 0
	for _, a := range testTopo.ASNs() {
		x := testTopo.AS(a)
		if x.ContentPeerTE {
			te++
			if x.Class != Tier1 && x.Class != LargeISP && x.Class != SmallISP {
				t.Errorf("%v (%s) runs content TE", a, x.Class)
			}
		}
		if x.DomesticBias {
			domestic++
		}
	}
	if te == 0 {
		t.Error("no content-TE ASes generated")
	}
	if domestic == 0 {
		t.Error("no domestic-bias ASes generated")
	}
}

func TestRegionalPrefixContinentsCovered(t *testing.T) {
	cdn := testTopo.Names["cdn-major"]
	conts := map[geo.Continent]bool{}
	for _, p := range testTopo.AS(cdn).Prefixes {
		if c := testTopo.CityOfPrefix(p); c != 0 {
			conts[testTopo.World.ContinentOf(c)] = true
		}
	}
	if len(conts) < 5 {
		t.Errorf("major's serving prefixes cover only %d continents", len(conts))
	}
}
