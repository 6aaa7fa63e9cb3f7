package classify

import (
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/complexrel"
	"routelab/internal/dnsdb"
	"routelab/internal/geo"
	"routelab/internal/race"
	"routelab/internal/registry"
	"routelab/internal/relgraph"
	"routelab/internal/siblings"
	"routelab/internal/topology"
)

// newContext builds a Context over an explicit graph with empty side
// datasets (tests fill what they need).
func newContext(g *relgraph.Graph) *Context {
	return &Context{
		Graph:            g,
		Siblings:         siblings.Infer(registry.New(), dnsdb.New()),
		Complex:          complexrel.New(),
		OriginEvidence:   map[asn.Prefix]map[asn.ASN]bool{},
		EdgeEverAtOrigin: map[topology.LinkKey]bool{},
		Registry:         registry.New(),
		CableASes:        map[asn.ASN]bool{},
	}
}

// starGraph: dst(1) has providers 2 and 3; 2 and 3 both connect to 10.
//
//	10 —(customer 2)— 2 —(customer 1)
//	10 —(peer 3)—     3 —(customer 1)
//
// 10's best class toward 1 is customer (via 2), length 2 either way.
func starGraph() *relgraph.Graph {
	g := relgraph.New()
	g.Set(2, 1, topology.RelCustomer)
	g.Set(3, 1, topology.RelCustomer)
	g.Set(10, 2, topology.RelCustomer) // 2 is 10's customer
	g.Set(10, 3, topology.RelPeer)     // 3 is 10's peer
	return g
}

func TestClassifyQuadrants(t *testing.T) {
	cx := newContext(starGraph())
	p := asn.NewPrefix(asn.AddrFrom4(10, 0, 0, 0), 24)
	base := Decision{At: 10, Prefix: p, DstAS: 1}

	d := base
	d.Via, d.RestLen = 2, 2 // customer route, shortest
	if got := cx.Classify(d, Simple); got != BestShort {
		t.Errorf("customer/shortest = %v, want Best/Short", got)
	}
	d.Via, d.RestLen = 3, 2 // peer route, shortest
	if got := cx.Classify(d, Simple); got != NonBestShort {
		t.Errorf("peer/shortest = %v, want NonBest/Short", got)
	}
	d.Via, d.RestLen = 2, 4 // customer route, longer than model's 2
	if got := cx.Classify(d, Simple); got != BestLong {
		t.Errorf("customer/long = %v, want Best/Long", got)
	}
	d.Via, d.RestLen = 3, 4
	if got := cx.Classify(d, Simple); got != NonBestLong {
		t.Errorf("peer/long = %v, want NonBest/Long", got)
	}
}

func TestClassifyUnknownEdgeIsNonBest(t *testing.T) {
	cx := newContext(starGraph())
	d := Decision{At: 10, Via: 99, DstAS: 1, RestLen: 2}
	if got := cx.Classify(d, Simple); got != NonBestShort {
		t.Errorf("unknown edge, shortest = %v, want NonBest/Short", got)
	}
}

func TestSibsRefinementMarksBest(t *testing.T) {
	g := starGraph()
	cx := newContext(g)
	// Make 10 and 3 siblings via whois+SOA.
	reg := registry.New()
	for _, a := range []asn.ASN{10, 3} {
		if err := reg.AddAS(registry.ASRecord{ASN: a, Country: "AA", Registry: registry.ARIN, Email: "noc@grp.example"}); err != nil {
			t.Fatal(err)
		}
	}
	cx.Siblings = siblings.Infer(reg, dnsdb.New())
	d := Decision{At: 10, Via: 3, DstAS: 1, RestLen: 2}
	if got := cx.Classify(d, Simple); got != NonBestShort {
		t.Fatalf("without Sibs: %v, want NonBest/Short", got)
	}
	if got := cx.Classify(d, Sibs); got != BestShort {
		t.Errorf("with Sibs: %v, want Best/Short", got)
	}
}

func TestComplexRefinementHybrid(t *testing.T) {
	cx := newContext(starGraph())
	city := geo.CityID(5)
	cx.Complex.AddHybrid(complexrel.HybridEntry{A: 10, B: 3, City: city, Role: topology.RelCustomer})
	d := Decision{At: 10, Via: 3, DstAS: 1, RestLen: 2, BoundaryCity: city}
	if got := cx.Classify(d, Simple); got != NonBestShort {
		t.Fatalf("Simple: %v, want NonBest/Short", got)
	}
	if got := cx.Classify(d, Complex); got != BestShort {
		t.Errorf("Complex with hybrid customer role: %v, want Best/Short", got)
	}
	// Without a geolocated boundary the hybrid entry cannot apply.
	d.BoundaryCity = 0
	if got := cx.Classify(d, Complex); got != NonBestShort {
		t.Errorf("Complex without boundary city: %v, want NonBest/Short", got)
	}
}

func TestComplexRefinementPartialTransit(t *testing.T) {
	// 10 reaches 1 ONLY via peer 3 (remove the customer edge), and the
	// published dataset says 3 gives 10 partial transit for p.
	g := relgraph.New()
	g.Set(3, 1, topology.RelCustomer)
	g.Set(10, 3, topology.RelPeer)
	cx := newContext(g)
	p := asn.NewPrefix(asn.AddrFrom4(10, 0, 0, 0), 24)
	cx.Complex.AddPartial(complexrel.PartialEntry{A: 10, B: 3, Prefixes: []asn.Prefix{p}})
	d := Decision{At: 10, Via: 3, Prefix: p, DstAS: 1, RestLen: 2}
	// Simple: peer route is 10's best available class → Best/Short.
	if got := cx.Classify(d, Simple); got != BestShort {
		t.Fatalf("Simple: %v", got)
	}
	// Complex: the decision is re-labeled a provider-class route; the
	// model's best class (peer) now beats it → NonBest.
	if got := cx.Classify(d, Complex); got != NonBestShort {
		t.Errorf("Complex partial transit: %v, want NonBest/Short", got)
	}
}

func TestPSPMasking(t *testing.T) {
	// Origin 1 has neighbors 2 (observed announcing p) and 3 (not).
	g := starGraph()
	cx := newContext(g)
	p := asn.NewPrefix(asn.AddrFrom4(10, 0, 0, 0), 24)
	cx.OriginEvidence[p] = map[asn.ASN]bool{2: true}
	cx.EdgeEverAtOrigin[topology.MakeLinkKey(1, 2)] = true

	// Under Criteria 1, edge 1-3 is masked: 10's peer route via 3
	// disappears from the model, so choosing the customer route via 2
	// with a longer path can become Best/Short.
	masked := cx.MaskedEdges(1, p, 1)
	if len(masked) != 1 || masked[0].B != 3 {
		t.Fatalf("criteria 1 masked = %v, want edge 1-3", masked)
	}
	// Criteria 2 requires the edge to have appeared at origin position
	// for SOME prefix; 1-3 never did, so nothing is masked.
	if got := cx.MaskedEdges(1, p, 2); len(got) != 0 {
		t.Fatalf("criteria 2 masked = %v, want none", got)
	}
	// Once 1-3 is known to carry some prefix, criteria 2 masks it too.
	cx.EdgeEverAtOrigin[topology.MakeLinkKey(1, 3)] = true
	if got := cx.MaskedEdges(1, p, 2); len(got) != 1 {
		t.Fatalf("criteria 2 after evidence = %v, want edge 1-3", got)
	}
}

func TestPSPChangesClassification(t *testing.T) {
	// 10 chooses a 3-hop customer route (via 2-5) while the model knows
	// a 2-hop customer route via 3 — but feeds show origin 1 never
	// announcing p to 3 (selective announcement).
	g := relgraph.New()
	g.Set(10, 2, topology.RelCustomer) // 2 is 10's customer
	g.Set(2, 5, topology.RelCustomer)  // 5 is 2's customer
	g.Set(5, 1, topology.RelCustomer)  // 1 is 5's customer: 10-2-5-1
	g.Set(10, 3, topology.RelCustomer) // 3 is 10's customer
	g.Set(3, 1, topology.RelCustomer)  // 10-3-1: shorter customer route
	cx := newContext(g)
	p := asn.NewPrefix(asn.AddrFrom4(10, 0, 0, 0), 24)
	cx.OriginEvidence[p] = map[asn.ASN]bool{5: true}

	d := Decision{At: 10, Via: 2, Prefix: p, DstAS: 1, RestLen: 3}
	// Simple: the best-class (customer) shortest is 2 via 3, so the
	// 3-hop measured path is Long.
	if got := cx.Classify(d, Simple); got != BestLong {
		t.Fatalf("Simple: %v, want Best/Long", got)
	}
	// PSP-1 masks edge 1-3 (feeds never showed 1 announcing p to 3):
	// the short route vanishes; the class shortest becomes 3 →
	// Best/Short.
	if got := cx.Classify(d, PSP1); got != BestShort {
		t.Errorf("PSP-1: %v, want Best/Short", got)
	}
}

func TestBreakdownCounts(t *testing.T) {
	cx := newContext(starGraph())
	ds := []Decision{
		{At: 10, Via: 2, DstAS: 1, RestLen: 2},
		{At: 10, Via: 3, DstAS: 1, RestLen: 2},
		{At: 10, Via: 3, DstAS: 1, RestLen: 5},
	}
	got := cx.Breakdown(ds, Simple)
	if got[BestShort] != 1 || got[NonBestShort] != 1 || got[NonBestLong] != 1 {
		t.Errorf("Breakdown = %v", got)
	}
}

func TestMagnetClassification(t *testing.T) {
	g := starGraph() // at AS 10: via 2 customer, via 3 peer
	cx := newContext(g)
	route := func(nh asn.ASN, pathLen int) bgp.Route {
		asns := make([]asn.ASN, pathLen)
		for i := range asns {
			asns[i] = asn.ASN(1000 + i)
		}
		asns[0] = nh
		return bgp.Route{Path: asn.PathFromASNs(asns...), NextHop: nh}
	}
	cases := []struct {
		name string
		d    MagnetDecision
		want MagnetCause
	}{
		{
			"cheaper wins",
			MagnetDecision{AS: 10, Chosen: route(2, 3), Others: []bgp.Route{route(3, 2)}},
			CauseBestRel,
		},
		{
			"violation when cheaper alternative ignored",
			MagnetDecision{AS: 10, Chosen: route(3, 2), Others: []bgp.Route{route(2, 3)}},
			CauseViolation,
		},
		{
			"shorter within class",
			MagnetDecision{AS: 10, Chosen: route(3, 2), Others: []bgp.Route{route(3, 4)}},
			CauseShorterPath,
		},
		{
			"same cost longer is violation",
			MagnetDecision{AS: 10, Chosen: route(3, 4), Others: []bgp.Route{route(3, 2)}},
			CauseViolation,
		},
		{
			"pure tie kept magnet = oldest",
			MagnetDecision{AS: 10, Chosen: route(3, 2), KeptMagnet: true, Others: []bgp.Route{route(3, 2)}},
			CauseOldestRoute,
		},
		{
			"pure tie moved = intradomain",
			MagnetDecision{AS: 10, Chosen: route(3, 2), KeptMagnet: false, Others: []bgp.Route{route(3, 2)}},
			CauseIntradomain,
		},
	}
	for _, c := range cases {
		if got := cx.ClassifyMagnet(c.d); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	bd := cx.MagnetBreakdown([]MagnetDecision{cases[0].d, cases[1].d, {AS: 10, Chosen: route(2, 2)}})
	if bd[CauseBestRel] != 1 || bd[CauseViolation] != 1 {
		t.Errorf("MagnetBreakdown = %v", bd)
	}
	total := 0
	for _, n := range bd {
		total += n
	}
	if total != 2 {
		t.Errorf("alternatives-free decisions must be excluded; total = %d", total)
	}
}

// TestAllocsClassifyWarm pins the judging path Figure 1 and the service
// run once the model caches hold the destination: under every
// refinement, Classify allocates nothing.
func TestAllocsClassifyWarm(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	cx := newContext(starGraph())
	p := asn.NewPrefix(asn.AddrFrom4(10, 0, 0, 0), 24)
	cx.OriginEvidence[p] = map[asn.ASN]bool{2: true}
	ds := []Decision{
		{At: 10, Via: 2, Prefix: p, DstAS: 1, RestLen: 2},
		{At: 10, Via: 3, Prefix: p, DstAS: 1, RestLen: 4},
		{At: 10, Via: 77, Prefix: p, DstAS: 1, RestLen: 2}, // an edge the graph lacks
	}
	sweep := func() {
		for _, d := range ds {
			for _, ref := range Refinements {
				cx.Classify(d, ref)
			}
		}
	}
	sweep() // fill the model caches
	if got := testing.AllocsPerRun(100, sweep); got != 0 {
		t.Errorf("Classify on warm caches: %v allocs per %d calls, want 0", got, len(ds)*len(Refinements))
	}
}
