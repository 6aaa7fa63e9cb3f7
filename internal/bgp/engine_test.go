package bgp

import (
	"reflect"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/geo"
	"routelab/internal/topology"
)

// diamond builds the classic Gao–Rexford test topology:
//
//	  t1 ——— t2        (peer)
//	 /  \    |
//	c1   c2  c3        (customers of the tier above)
//	 \   /
//	  org                (customer of c1 and c2)
//
// org originates a prefix; t1 hears it from customer c1/c2; t2 from t1.
func diamond(t *testing.T) (*Engine, asn.Prefix, map[string]asn.ASN) {
	t.Helper()
	b := topology.NewBuilder()
	ids := map[string]asn.ASN{"t1": 10, "t2": 20, "c1": 31, "c2": 32, "c3": 33, "org": 40}
	for _, a := range ids {
		b.AS(a, topology.SmallISP, "")
	}
	b.Link(ids["t1"], ids["t2"], topology.RelPeer)
	b.Link(ids["c1"], ids["t1"], topology.RelProvider)
	b.Link(ids["c2"], ids["t1"], topology.RelProvider)
	b.Link(ids["c3"], ids["t2"], topology.RelProvider)
	b.Link(ids["org"], ids["c1"], topology.RelProvider)
	b.Link(ids["org"], ids["c2"], topology.RelProvider)
	topo := b.Build()
	e := New(topo, 1)
	return e, topo.AS(ids["org"]).Prefixes[0], ids
}

func mustRoute(t *testing.T, c *Computation, a asn.ASN) Route {
	t.Helper()
	r, ok := c.Best(a)
	if !ok {
		t.Fatalf("%s has no route", a)
	}
	return r
}

func TestBasicPropagation(t *testing.T) {
	e, p, ids := diamond(t)
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: ids["org"]})
	if !c.Converge() {
		t.Fatal("did not converge")
	}
	// Everyone must have a route.
	for name, a := range ids {
		r := mustRoute(t, c, a)
		if name == "org" {
			if !r.IsOrigin() {
				t.Errorf("org should self-originate, got %v", r)
			}
			continue
		}
		if got := r.Path.Origin(); got != ids["org"] {
			t.Errorf("%s path origin = %v", name, got)
		}
	}
	// t1 hears org via a customer (c1 or c2), one AS away.
	r := mustRoute(t, c, ids["t1"])
	if r.FromRel != topology.RelCustomer || r.Path.Len() != 2 {
		t.Errorf("t1 route: rel=%s len=%d, want customer len 2", r.FromRel, r.Path.Len())
	}
	// t2 hears only via its peer t1.
	r = mustRoute(t, c, ids["t2"])
	if r.NextHop != ids["t1"] || r.FromRel != topology.RelPeer {
		t.Errorf("t2 route: %v", r)
	}
	// c3 hears via provider t2: path c3->t2->t1->cX->org.
	r = mustRoute(t, c, ids["c3"])
	if r.FromRel != topology.RelProvider || r.Path.Len() != 4 {
		t.Errorf("c3 route: %v", r)
	}
}

// The export rule must prevent valleys: c3's provider route must never be
// exported back up or sideways. We verify c1 does NOT learn a path
// through t2 (peer routes are not exported to peers).
func TestNoValleyExport(t *testing.T) {
	e, p, ids := diamond(t)
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: ids["org"]})
	c.Converge()
	for _, r := range c.Alternatives(ids["t2"]) {
		// t2's only candidate should be via t1 (peer); its customer c3
		// must not offer a route (that would be a valley).
		if r.NextHop == ids["c3"] {
			t.Fatalf("valley: t2 learned org's prefix from its customer c3: %v", r)
		}
	}
}

func TestCustomerPreferredOverPeerAndProvider(t *testing.T) {
	// t1 hears from customer c1 AND from peer t2 (if exported) — build a
	// triangle where the same prefix arrives with different relations.
	b := topology.NewBuilder()
	x := b.AS(100, topology.LargeISP, "").ASN
	cust := b.AS(200, topology.SmallISP, "").ASN
	peer := b.AS(300, topology.LargeISP, "").ASN
	org := b.AS(400, topology.Stub, "").ASN
	b.Link(cust, x, topology.RelProvider) // cust's provider is x
	b.Link(x, peer, topology.RelPeer)     // x peers with peer
	b.Link(org, cust, topology.RelProvider)
	b.Link(org, peer, topology.RelProvider)
	topo := b.Build()
	e := New(topo, 1)
	p := topo.AS(org).Prefixes[0]
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: org})
	c.Converge()
	r := mustRoute(t, c, x)
	if r.NextHop != cust || r.FromRel != topology.RelCustomer {
		t.Fatalf("x chose %v; want customer route via %s", r, cust)
	}
	alts := c.Alternatives(x)
	if len(alts) != 2 {
		t.Fatalf("x should hold 2 candidates, got %d", len(alts))
	}
	if alts[1].NextHop != peer {
		t.Errorf("runner-up should be the peer route, got %v", alts[1])
	}
	if step, _ := c.Step(x); step != ByLocalPref {
		t.Errorf("decisive step = %v, want best relationship", step)
	}
}

func TestShorterPathWinsWithinClass(t *testing.T) {
	// Two customer routes of different lengths.
	b := topology.NewBuilder()
	x := b.AS(100, topology.LargeISP, "").ASN
	c1 := b.AS(200, topology.SmallISP, "").ASN
	c2 := b.AS(300, topology.SmallISP, "").ASN
	mid := b.AS(350, topology.SmallISP, "").ASN
	org := b.AS(400, topology.Stub, "").ASN
	b.Link(c1, x, topology.RelProvider)
	b.Link(c2, x, topology.RelProvider)
	b.Link(org, c1, topology.RelProvider)  // short: org-c1-x
	b.Link(org, mid, topology.RelProvider) // long: org-mid-c2-x
	b.Link(mid, c2, topology.RelProvider)
	topo := b.Build()
	e := New(topo, 1)
	p := topo.AS(org).Prefixes[0]
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: org})
	c.Converge()
	r := mustRoute(t, c, x)
	if r.NextHop != c1 || r.Path.Len() != 2 {
		t.Fatalf("x chose %v, want 2-hop customer route via %s", r, c1)
	}
	if step, _ := c.Step(x); step != ByPathLen {
		t.Errorf("decisive step = %v, want shorter path", step)
	}
}

func TestPoisoningForcesAlternate(t *testing.T) {
	e, p, ids := diamond(t)
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: ids["org"]})
	c.Converge()
	first := mustRoute(t, c, ids["t1"])
	firstHop := first.NextHop // c1 or c2

	// Poison the chosen next hop: org announces ORG {firstHop} ORG.
	c.Announce(Announcement{Origin: ids["org"], Poisoned: []asn.ASN{firstHop}})
	if !c.Converge() {
		t.Fatal("did not reconverge after poisoning")
	}
	second := mustRoute(t, c, ids["t1"])
	if second.NextHop == firstHop {
		t.Fatalf("t1 still routes via poisoned %s", firstHop)
	}
	if _, ok := c.Best(firstHop); ok {
		t.Errorf("poisoned AS %s still holds a route", firstHop)
	}
	// Path length at t1 reflects the AS_SET counting: ORG {X} ORG via cY
	// is 4 (cY, ORG, set, ORG).
	if second.Path.Len() != 4 {
		t.Errorf("poisoned path len = %d, want 4 (%v)", second.Path.Len(), second.Path)
	}
}

func TestPoisonBothUpstreamsKillsRoute(t *testing.T) {
	e, p, ids := diamond(t)
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: ids["org"], Poisoned: []asn.ASN{ids["c1"], ids["c2"]}})
	c.Converge()
	if _, ok := c.Best(ids["t1"]); ok {
		t.Error("t1 should lose all routes when both upstreams are poisoned")
	}
	if _, ok := c.Best(ids["org"]); !ok {
		t.Error("origin must keep its own route")
	}
}

func TestNoLoopPreventionAcceptsPoison(t *testing.T) {
	e, p, ids := diamond(t)
	e.topo.AS(ids["c1"]).NoLoopPrevention = true
	e = New(e.topo, 1) // the engine snapshots per-AS policy when built
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: ids["org"], Poisoned: []asn.ASN{ids["c1"]}})
	c.Converge()
	if _, ok := c.Best(ids["c1"]); !ok {
		t.Error("c1 has loop prevention disabled and must accept the poisoned path")
	}
}

func TestASSetFilterDropsPoisonedAnnouncements(t *testing.T) {
	e, p, ids := diamond(t)
	e.topo.AS(ids["t1"]).FiltersASSets = true
	e = New(e.topo, 1) // the engine snapshots per-AS policy when built
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: ids["org"], Poisoned: []asn.ASN{9999}})
	c.Converge()
	if _, ok := c.Best(ids["t1"]); ok {
		t.Error("t1 filters AS_SETs and must drop the poisoned announcement")
	}
	if _, ok := c.Best(ids["c1"]); !ok {
		t.Error("c1 does not filter AS_SETs and should keep the route")
	}
}

func TestViaRestrictsAnnouncement(t *testing.T) {
	e, p, ids := diamond(t)
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: ids["org"], Via: []asn.ASN{ids["c1"]}})
	c.Converge()
	r := mustRoute(t, c, ids["t1"])
	if r.NextHop != ids["c1"] {
		t.Errorf("t1 should hear only via c1, got %v", r)
	}
	if alts := c.Alternatives(ids["t1"]); len(alts) != 1 {
		t.Errorf("t1 should hold exactly 1 candidate, got %d", len(alts))
	}
	// c2 must not hear the prefix DIRECTLY from org; it still learns it
	// through its provider t1 (that is the whole point of selective
	// announcement confusing the models: the edge org-c2 exists but is
	// unused for this prefix).
	rc2 := mustRoute(t, c, ids["c2"])
	if rc2.NextHop != ids["t1"] {
		t.Errorf("c2 should hear only via t1, got %v", rc2)
	}
	for _, alt := range c.Alternatives(ids["c2"]) {
		if alt.NextHop == ids["org"] {
			t.Error("c2 heard a direct announcement the Via policy forbade")
		}
	}
}

func TestSelectiveExportPolicy(t *testing.T) {
	e, p, ids := diamond(t)
	org := e.topo.AS(ids["org"])
	org.SelectiveExport = map[asn.Prefix][]asn.ASN{p: {ids["c2"]}}
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: ids["org"]})
	c.Converge()
	r := mustRoute(t, c, ids["t1"])
	if r.NextHop != ids["c2"] {
		t.Errorf("selective export should leave only the c2 path, got %v", r)
	}
	// c1 hears only the long way around, via its provider t1.
	rc1 := mustRoute(t, c, ids["c1"])
	if rc1.NextHop != ids["t1"] {
		t.Errorf("c1 should hear only via t1, got %v", rc1)
	}
	for _, alt := range c.Alternatives(ids["c1"]) {
		if alt.NextHop == ids["org"] {
			t.Error("c1 heard a direct announcement despite selective export")
		}
	}
}

func TestWithdrawPropagates(t *testing.T) {
	e, p, ids := diamond(t)
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: ids["org"]})
	c.Converge()
	c.Withdraw(ids["org"])
	if !c.Converge() {
		t.Fatal("did not converge after withdrawal")
	}
	for name, a := range ids {
		if _, ok := c.Best(a); ok {
			t.Errorf("%s still holds a route after withdrawal", name)
		}
	}
}

func TestAnycastAndOldestRouteTieBreak(t *testing.T) {
	// Two origins announce the same prefix (anycast). An AS equidistant
	// from both with equal LocalPref and IGP costs... hard to force IGP
	// equality, so instead verify the magnet property: an AS that
	// already holds a route does not move to a NEW route that ties on
	// LocalPref/length/IGP only when the old one is genuinely preferred;
	// and that ages are tracked (the second announcement's routes are
	// younger).
	e, p, ids := diamond(t)
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: ids["org"], Via: []asn.ASN{ids["c1"]}})
	c.Converge()
	before := mustRoute(t, c, ids["t1"])
	c.Announce(Announcement{Origin: ids["org"]}) // now via both
	c.Converge()
	after := mustRoute(t, c, ids["t1"])
	if after.NextHop != before.NextHop {
		// Whatever moved it must have been a strictly better step, not age.
		if step, _ := c.Step(ids["t1"]); step == ByAge || step == ByRouterID {
			t.Errorf("t1 moved on a pure tie (step=%v); oldest route must win ties", step)
		}
	}
	// The candidate via c2 must be younger than the one via c1.
	alts := c.Alternatives(ids["t1"])
	var viaC1, viaC2 *Route
	for i := range alts {
		switch alts[i].NextHop {
		case ids["c1"]:
			viaC1 = &alts[i]
		case ids["c2"]:
			viaC2 = &alts[i]
		}
	}
	if viaC1 == nil || viaC2 == nil {
		t.Fatalf("t1 should hold candidates via both customers: %v", alts)
	}
	if viaC1.Age >= viaC2.Age {
		t.Errorf("route via c1 (age %d) should be older than via c2 (age %d)",
			viaC1.Age, viaC2.Age)
	}
}

func TestDomesticBiasFlipsPreference(t *testing.T) {
	// x (domestic-bias) chooses between an international peer route and
	// a domestic provider route toward a domestic origin.
	b := topology.NewBuilder()
	home := b.World().AllCountries()[0]
	abroad := b.World().AllCountries()[1]
	x := b.AS(100, topology.SmallISP, home)
	prov := b.AS(200, topology.LargeISP, home).ASN
	peer := b.AS(300, topology.LargeISP, abroad).ASN
	org := b.AS(400, topology.Stub, home).ASN
	b.Link(x.ASN, prov, topology.RelProvider)
	b.Link(x.ASN, peer, topology.RelPeer)
	b.Link(org, prov, topology.RelProvider)
	b.Link(org, peer, topology.RelProvider)
	topo := b.Build()
	p := topo.AS(org).Prefixes[0]

	run := func(bias bool) Route {
		topo.AS(x.ASN).DomesticBias = bias
		e := New(topo, 1)
		c := e.NewComputation(p)
		c.Announce(Announcement{Origin: org})
		c.Converge()
		r, ok := c.Best(x.ASN)
		if !ok {
			t.Fatal("x has no route")
		}
		return r
	}
	if r := run(false); r.NextHop != peer {
		t.Fatalf("without bias x should prefer the peer route, got %v", r)
	}
	if r := run(true); r.NextHop != prov {
		t.Fatalf("with domestic bias x should prefer the domestic provider, got %v", r)
	}
}

func TestResearchPreference(t *testing.T) {
	// A university prefers the path through its research backbone even
	// though the backbone is its provider and a peer route exists.
	b := topology.NewBuilder()
	univ := b.AS(100, topology.Stub, "")
	ren := b.AS(200, topology.Research, "").ASN
	isp := b.AS(300, topology.LargeISP, "").ASN
	org := b.AS(400, topology.Stub, "").ASN
	b.Link(univ.ASN, ren, topology.RelProvider)
	b.Link(univ.ASN, isp, topology.RelPeer)
	b.Link(org, ren, topology.RelProvider)
	b.Link(org, isp, topology.RelProvider)
	topo := b.Build()
	univ.ResearchPreference = true
	e := New(topo, 1)
	p := topo.AS(org).Prefixes[0]
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: org})
	c.Converge()
	r := mustRoute(t, c, univ.ASN)
	if r.NextHop != ren {
		t.Fatalf("university should prefer the research path, got %v", r)
	}
	if r.FromRel != topology.RelProvider {
		t.Errorf("research path is via a provider (the violation fixture), got %s", r.FromRel)
	}
}

func TestPartialTransitOverride(t *testing.T) {
	// peer link x—y carries partial transit: y provides x transit for
	// prefix pT only. For pT, y exports its provider-learned route to x;
	// for other prefixes it must not.
	b := topology.NewBuilder()
	x := b.AS(100, topology.SmallISP, "").ASN
	y := b.AS(200, topology.LargeISP, "").ASN
	up := b.AS(300, topology.Tier1, "").ASN
	orgT := b.AS(400, topology.Stub, "").ASN
	orgO := b.AS(500, topology.Stub, "").ASN
	l := b.Link(x, y, topology.RelPeer)
	b.Link(y, up, topology.RelProvider)
	b.Link(orgT, up, topology.RelProvider)
	b.Link(orgO, up, topology.RelProvider)
	topo := b.Build()
	pT := topo.AS(orgT).Prefixes[0]
	pO := topo.AS(orgO).Prefixes[0]
	l.PartialTransitFor = map[asn.Prefix]bool{pT: true}
	e := New(topo, 1)

	cT := e.NewComputation(pT)
	cT.Announce(Announcement{Origin: orgT})
	cT.Converge()
	r, ok := cT.Best(x)
	if !ok {
		t.Fatal("x should reach pT through partial transit")
	}
	if r.NextHop != y || r.FromRel != topology.RelProvider {
		t.Errorf("x's pT route = %v; want provider route via y", r)
	}

	cO := e.NewComputation(pO)
	cO.Announce(Announcement{Origin: orgO})
	cO.Converge()
	if _, ok := cO.Best(x); ok {
		t.Error("x must NOT reach pO via the peer link (no transit for it)")
	}
}

func TestHybridRelationshipByCity(t *testing.T) {
	// Link x—y interconnects in two cities; in city B, y is x's customer
	// instead of peer. Prefixes hashing to city B see customer pricing.
	b := topology.NewBuilder()
	w := b.World()
	cities := w.Country(w.AllCountries()[0]).Cities
	if len(cities) < 2 {
		cities = append(cities, w.Country(w.AllCountries()[1]).Cities[0])
	}
	x := b.AS(100, topology.LargeISP, "").ASN
	y := b.AS(200, topology.LargeISP, "").ASN
	org := b.AS(300, topology.Stub, "").ASN
	b.Link(x, y, topology.RelPeer, cities[0], cities[1])
	b.Link(org, y, topology.RelProvider)
	topo := b.Build()
	// y is x's customer at cities[1] (l.Lo is the smaller ASN, x=100).
	// New prices the link, so its roles are set first.
	lnk := topo.Link(x, y)
	lnk.HybridRoles = map[geo.CityID]topology.Rel{cities[1]: topology.RelCustomer}
	e := New(topo, 7)

	// Find prefixes that hash to each city.
	var pA, pB asn.Prefix
	for i := 0; i < 64 && (pA.IsZero() || pB.IsZero()); i++ {
		p := b.AddPrefix(org)
		if cityOn(e, lnk, p) == cities[0] {
			if pA.IsZero() {
				pA = p
			}
		} else if pB.IsZero() {
			pB = p
		}
	}
	if pA.IsZero() || pB.IsZero() {
		t.Skip("hash never split prefixes across cities (unlucky seed)")
	}
	relFor := func(p asn.Prefix) topology.Rel {
		c := e.NewComputation(p)
		c.Announce(Announcement{Origin: org})
		c.Converge()
		r, ok := c.Best(x)
		if !ok {
			t.Fatalf("x has no route for %s", p)
		}
		return r.FromRel
	}
	if got := relFor(pA); got != topology.RelPeer {
		t.Errorf("prefix at city A: rel=%s, want peer", got)
	}
	if got := relFor(pB); got != topology.RelCustomer {
		t.Errorf("prefix at city B: rel=%s, want customer (hybrid)", got)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	topo := topology.Generate(5, topology.TestConfig())
	e1 := New(topo, 9)
	e2 := New(topo, 9)
	p := topo.AS(topo.Names["cdn-major"]).Prefixes[0]
	r1 := e1.ComputePrefix(p)
	r2 := e2.ComputePrefix(p)
	if len(r1) != len(r2) {
		t.Fatalf("route counts differ: %d vs %d", len(r1), len(r2))
	}
	for a, x := range r1 {
		y := r2[a]
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("route at %s differs: %v vs %v", a, x, y)
		}
	}
}

// On the generated topology, with an origin that has NO special policies
// in play for its prefix, every installed ground-truth path must be
// valley-free with respect to EFFECTIVE relationships. (Sibling edges are
// transparent; research/domestic bonuses change preference, not export.)
func TestGroundTruthPathsValleyFree(t *testing.T) {
	topo := topology.Generate(11, topology.TestConfig())
	e := New(topo, 11)
	checked := 0
	for _, p := range topo.OriginatedPrefixes() {
		if checked >= 12 {
			break
		}
		checked++
		routes := e.ComputePrefix(p)
		for a, r := range routes {
			if r.IsOrigin() {
				continue
			}
			full := r.ASPathFrom(a)
			if err := valleyFreeEffective(topo, e, p, full); err != nil {
				t.Fatalf("prefix %s at %s: %v (path %v)", p, a, err, full)
			}
		}
	}
}

// valleyFreeEffective verifies the Gao–Rexford export invariant along a
// ground-truth forwarding path, using effective per-prefix roles. The
// advertisement traveled origin→source; at every transit AS path[i]
// (0 < i < len-1) the route learned from path[i+1] must be exportable to
// path[i-1]. Sibling edges behave like customer edges on both sides, so
// a path may climb again after crossing one — the classic single-peak
// pattern only holds for sibling-free paths, which we additionally check.
func valleyFreeEffective(topo *topology.Topology, e *Engine, p asn.Prefix, path []asn.ASN) error {
	rels := make([]topology.Rel, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		l := topo.Link(path[i], path[i+1])
		if l == nil {
			return errLink{path[i], path[i+1]}
		}
		city := cityOn(e, l, p)
		rels[i] = effectiveRel(l, path[i], path[i+1], p, city)
	}
	// Export invariant at every transit AS, tracking the route's
	// organizational class across sibling hops (advertisement direction:
	// origin → source).
	orgRel := topology.RelNone // the origin's own route
	for i := len(path) - 2; i >= 0; i-- {
		toRel := rels[i].Invert() // role of path[i] from the exporter path[i+1]
		if !exports(orgRel, toRel) {
			return errValley{"export rule violated", i}
		}
		if rels[i] == topology.RelSibling {
			// class preserved across the sibling hop
		} else {
			orgRel = rels[i] // the class path[i] received the route with
		}
	}
	// Classic single-peak shape for sibling-free paths.
	for _, r := range rels {
		if r == topology.RelSibling {
			return nil
		}
	}
	const (
		up   = 0
		down = 1
	)
	phase := up
	for i, r := range rels {
		switch r {
		case topology.RelProvider:
			if phase != up {
				return errValley{"provider edge after the summit", i}
			}
		case topology.RelPeer, topology.RelCustomer:
			if phase == down && r == topology.RelPeer {
				return errValley{"peer edge on the downhill", i}
			}
			phase = down
		default:
			return errValley{"unrelated adjacency", i}
		}
	}
	return nil
}

type errLink struct{ a, b asn.ASN }

func (e errLink) Error() string { return "no link " + e.a.String() + "-" + e.b.String() }

type errValley struct {
	msg string
	idx int
}

func (e errValley) Error() string { return e.msg }

func TestContentPeerTE(t *testing.T) {
	// x traffic-engineers content traffic onto peering: toward a
	// CONTENT destination it prefers its peer route over a customer
	// route; toward a stub destination the customer route still wins.
	b := topology.NewBuilder()
	x := b.AS(100, topology.LargeISP, "")
	cust := b.AS(200, topology.SmallISP, "").ASN
	peer := b.AS(300, topology.LargeISP, "").ASN
	contentAS := b.AS(400, topology.Content, "").ASN
	stubAS := b.AS(500, topology.Stub, "").ASN
	b.Link(cust, x.ASN, topology.RelProvider)
	b.Link(x.ASN, peer, topology.RelPeer)
	for _, dst := range []asn.ASN{contentAS, stubAS} {
		b.Link(dst, cust, topology.RelProvider)
		b.Link(dst, peer, topology.RelProvider)
	}
	topo := b.Build()
	x.ContentPeerTE = true
	e := New(topo, 1)

	run := func(dst asn.ASN) Route {
		p := topo.AS(dst).Prefixes[0]
		c := e.NewComputation(p)
		c.Announce(Announcement{Origin: dst})
		c.Converge()
		r, ok := c.Best(x.ASN)
		if !ok {
			t.Fatalf("x has no route toward %v", dst)
		}
		return r
	}
	if r := run(contentAS); r.NextHop != peer {
		t.Errorf("content destination: x chose %v, want TE onto the peer", r.NextHop)
	}
	if r := run(stubAS); r.NextHop != cust {
		t.Errorf("stub destination: x chose %v, want the customer route", r.NextHop)
	}
}

func TestOrgRelPreservedAcrossSiblings(t *testing.T) {
	// s1 and s2 are siblings. s1's only route toward the origin is via
	// its PROVIDER; when s2 hears it from s1, the route must keep
	// provider-class pricing and must NOT be exported to s2's peer.
	b := topology.NewBuilder()
	s1 := b.AS(100, topology.SmallISP, "").ASN
	s2 := b.AS(200, topology.SmallISP, "").ASN
	prov := b.AS(300, topology.LargeISP, "").ASN
	peerOfS2 := b.AS(400, topology.SmallISP, "").ASN
	org := b.AS(500, topology.Stub, "").ASN
	b.Link(s1, s2, topology.RelSibling)
	b.Link(s1, prov, topology.RelProvider)
	b.Link(s2, peerOfS2, topology.RelPeer)
	b.Link(org, prov, topology.RelProvider)
	topo := b.Build()
	e := New(topo, 1)
	p := topo.AS(org).Prefixes[0]
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: org})
	c.Converge()

	r2, ok := c.Best(s2)
	if !ok {
		t.Fatal("s2 should hear the route from its sibling")
	}
	if r2.FromRel != topology.RelSibling {
		t.Fatalf("s2 FromRel = %v", r2.FromRel)
	}
	if r2.OrgRel != topology.RelProvider {
		t.Errorf("s2 OrgRel = %v, want provider (class preserved)", r2.OrgRel)
	}
	// Provider band (100) plus the organization's on-net bonus (120):
	// above s2's own provider routes, still below any peer route... no —
	// 220 sits above the peer band's 200, flipping exactly one class,
	// which is the §4.2 sibling behavior the paper's refinement explains.
	if r2.LocalPref != 220 {
		t.Errorf("s2 LocalPref = %d, want provider band + on-net bonus = 220", r2.LocalPref)
	}
	// s2 must not leak the org's provider route to its peer.
	if _, ok := c.Best(peerOfS2); ok {
		t.Error("s2 exported an organizational provider route to a peer")
	}
}

// cityOn is the interconnection city the engine routes p through on l.
func cityOn(e *Engine, l *topology.Link, p asn.Prefix) geo.CityID {
	pair := e.newLinkPair(l)
	lo, _ := e.linkState(&pair, p, e.prefixContinent(p))
	return lo.city
}

// effectiveRel resolves the relationship of neighbor `other` from `self`
// for a specific prefix, applying hybrid (per-city) and partial-transit
// overrides, straight from the Link's maps: the reference for the roles
// New prices per city. city is the interconnection city the prefix's
// traffic uses on this link.
func effectiveRel(l *topology.Link, self, other asn.ASN, prefix asn.Prefix, city geo.CityID) topology.Rel {
	rel := l.RoleOf(self, other)
	if hr, ok := l.HybridRoles[city]; ok {
		// HybridRoles stores Hi's role from Lo's perspective at the city.
		if self == l.Lo {
			rel = hr
		} else {
			rel = hr.Invert()
		}
	}
	if l.PartialTransitFor != nil && l.PartialTransitFor[prefix] {
		// Hi provides Lo transit for this prefix.
		if self == l.Lo {
			rel = topology.RelProvider
		} else {
			rel = topology.RelCustomer
		}
	}
	return rel
}

// linkCityTwoScans is the city choice as it was made before the cities
// were grouped by continent in New: count the candidates on the prefix's
// continent, then walk to the (hash mod count)-th.
func linkCityTwoScans(e *Engine, l *topology.Link, prefix asn.Prefix, cont geo.Continent) geo.CityID {
	if len(l.Cities) == 1 {
		return l.Cities[0]
	}
	near := 0
	if cont != geo.ContinentNone {
		for _, c := range l.Cities {
			if e.topo.World.ContinentOf(c) == cont {
				near++
			}
		}
	}
	h := e.hash(uint64(l.Lo), uint64(l.Hi), uint64(prefix.Addr), uint64(prefix.Len))
	if near == 0 {
		return l.Cities[h%uint64(len(l.Cities))]
	}
	k := h % uint64(near)
	for _, c := range l.Cities {
		if e.topo.World.ContinentOf(c) == cont {
			if k == 0 {
				return c
			}
			k--
		}
	}
	panic("candidate count changed between scans")
}

// TestLinkCityMatchesTwoScanReference pins that pricing a link once in
// New changed no choice and no price: on two generated worlds, for every
// link and every originated prefix, the state both directions get —
// the city indexed out of the per-continent groups, the role priced per
// city plus the partial-transit probe, the IGP cost — is what the two
// scans of the city list, effectiveRel and igpCost give from the Link
// itself. Hybrid and partial-transit links must be among them.
func TestLinkCityMatchesTwoScanReference(t *testing.T) {
	for _, seed := range []int64{3, 2015} {
		topo := topology.Generate(seed, topology.TestConfig())
		e := New(topo, seed)
		prefixes := topo.OriginatedPrefixes()
		want := func(l *topology.Link, p asn.Prefix, cont geo.Continent) (lo, hi adjState) {
			city := linkCityTwoScans(e, l, p, cont)
			return adjState{city: city, rel: effectiveRel(l, l.Lo, l.Hi, p, city), igp: e.igpCost(l.Hi, l.Lo, city)},
				adjState{city: city, rel: effectiveRel(l, l.Hi, l.Lo, p, city), igp: e.igpCost(l.Lo, l.Hi, city)}
		}
		hybrid, partial := 0, 0
		for k := range e.varying {
			v := &e.varying[k]
			l := v.link
			check := func(p asn.Prefix, cont geo.Continent) geo.CityID {
				gotLo, gotHi := e.linkState(v, p, cont)
				if wantLo, wantHi := want(l, p, cont); gotLo != wantLo || gotHi != wantHi {
					t.Fatalf("seed %d, link %s-%s, %v toward %v: state %+v / %+v, reference %+v / %+v",
						seed, l.Lo, l.Hi, p, cont, gotLo, gotHi, wantLo, wantHi)
				}
				return gotLo.city
			}
			for _, p := range prefixes {
				if _, ok := l.HybridRoles[check(p, e.prefixContinent(p))]; ok {
					hybrid++
				}
				if l.PartialTransitFor[p] {
					partial++
				}
			}
			for cont := geo.ContinentNone; cont <= geo.OC; cont++ {
				check(prefixes[k%len(prefixes)], cont)
			}
		}
		if len(e.varying) == 0 || hybrid == 0 || partial == 0 {
			t.Fatalf("seed %d: %d varying links, %d (link, prefix) pairs at a hybrid city, %d under partial transit: the world exercises too little",
				seed, len(e.varying), hybrid, partial)
		}
		// Every other link has one state for every prefix, priced in New.
		varying := make(map[*topology.Link]bool, len(e.varying))
		for k := range e.varying {
			varying[e.varying[k].link] = true
		}
		for i, a := range e.asns {
			for s, nb := range topo.Neighbors(a) {
				if varying[nb.Link] {
					continue
				}
				lo, hi := want(nb.Link, prefixes[s%len(prefixes)], geo.ContinentNone)
				if a == nb.Link.Hi {
					lo = hi
				}
				if got := e.fixed[int(e.off[i])+s]; got != lo {
					t.Fatalf("seed %d, fixed adjacency %s→%s: state %+v, reference %+v", seed, a, nb.ASN, got, lo)
				}
			}
		}
	}
}
