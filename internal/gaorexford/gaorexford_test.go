package gaorexford

import (
	"slices"
	"sync"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/race"
	"routelab/internal/relgraph"
	"routelab/internal/topology"
)

// line builds d — m — a as a provider chain: d is m's customer, m is a's
// customer (so a reaches d via customer route of length 2).
func line() *relgraph.Graph {
	g := relgraph.New()
	g.Set(2, 1, topology.RelCustomer) // 1 is 2's customer
	g.Set(3, 2, topology.RelCustomer) // 2 is 3's customer
	return g
}

func TestCustomerChain(t *testing.T) {
	g := line()
	r := Compute(g, 1)
	if got := r.ClassLen(2, topology.RelCustomer); got != 1 {
		t.Errorf("ClassLen(2, customer) = %d, want 1", got)
	}
	if got := r.ClassLen(3, topology.RelCustomer); got != 2 {
		t.Errorf("ClassLen(3, customer) = %d, want 2", got)
	}
	if r.BestRank(3) != 0 {
		t.Errorf("BestRank(3) = %d, want 0", r.BestRank(3))
	}
	if r.ShortestLen(3) != 2 {
		t.Errorf("ShortestLen(3) = %d, want 2", r.ShortestLen(3))
	}
	if r.ShortestLen(1) != 0 || r.BestRank(1) != 0 {
		t.Error("destination must be trivially reachable at length 0")
	}
}

func TestPeerRoute(t *testing.T) {
	g := line()
	g.Set(4, 2, topology.RelPeer) // 4 peers with 2
	r := Compute(g, 1)
	// 4 reaches 1 via peer 2 (which holds a customer route): len 2.
	if got := r.ClassLen(4, topology.RelPeer); got != 2 {
		t.Errorf("ClassLen(4, peer) = %d, want 2", got)
	}
	if r.BestRank(4) != 1 {
		t.Errorf("BestRank(4) = %d, want 1 (peer)", r.BestRank(4))
	}
}

func TestPeerDoesNotRelayPeerRoutes(t *testing.T) {
	g := line()
	g.Set(4, 2, topology.RelPeer)
	g.Set(5, 4, topology.RelPeer) // 5 peers with 4
	r := Compute(g, 1)
	// 4's route to 1 is a peer route; it must NOT be exported to peer 5.
	if r.Reachable(5) {
		t.Errorf("5 should be unreachable (peer route not exported to peers), got len %d", r.ShortestLen(5))
	}
}

func TestProviderRoutePropagatation(t *testing.T) {
	g := line()
	g.Set(4, 2, topology.RelPeer)
	g.Set(4, 5, topology.RelCustomer) // 5 is 4's customer
	r := Compute(g, 1)
	// 5 hears 4's peer route as a provider route: len 3.
	if got := r.ClassLen(5, topology.RelProvider); got != 3 {
		t.Errorf("ClassLen(5, provider) = %d, want 3", got)
	}
	if r.BestRank(5) != 2 {
		t.Errorf("BestRank(5) = %d, want 2", r.BestRank(5))
	}
}

func TestProviderChainsExtend(t *testing.T) {
	g := line()
	g.Set(4, 2, topology.RelPeer)
	g.Set(4, 5, topology.RelCustomer)
	g.Set(5, 6, topology.RelCustomer) // 6 under 5
	r := Compute(g, 1)
	if got := r.ClassLen(6, topology.RelProvider); got != 4 {
		t.Errorf("ClassLen(6, provider) = %d, want 4", got)
	}
}

func TestBestRankPrefersCheapestClass(t *testing.T) {
	// AS 10 has: customer route (long), peer route (short).
	g := relgraph.New()
	g.Set(10, 11, topology.RelCustomer)
	g.Set(11, 12, topology.RelCustomer)
	g.Set(12, 1, topology.RelCustomer) // customer chain length 3
	g.Set(10, 20, topology.RelPeer)
	g.Set(20, 1, topology.RelCustomer) // peer route length 2
	r := Compute(g, 1)
	if r.BestRank(10) != 0 {
		t.Errorf("BestRank = %d; the customer class is available and must rank best", r.BestRank(10))
	}
	if r.ClassLen(10, topology.RelCustomer) != 3 {
		t.Errorf("customer len = %d", r.ClassLen(10, topology.RelCustomer))
	}
	if r.ClassLen(10, topology.RelPeer) != 2 {
		t.Errorf("peer len = %d", r.ClassLen(10, topology.RelPeer))
	}
	if r.ShortestLen(10) != 2 {
		t.Errorf("ShortestLen = %d, want 2 (via peer)", r.ShortestLen(10))
	}
}

func TestMaskedEdge(t *testing.T) {
	g := line()
	r := Compute(g, 1, relgraph.Edge{A: 2, B: 1})
	if r.Reachable(2) || r.Reachable(3) {
		t.Error("masking the only edge to the destination must cut reachability")
	}
}

func TestUnknownASUnreachable(t *testing.T) {
	r := Compute(line(), 1)
	if r.Reachable(999) {
		t.Error("an AS absent from the graph cannot be reachable")
	}
	if r.BestRank(999) != 3 {
		t.Errorf("BestRank(999) = %d, want 3", r.BestRank(999))
	}
	if r.ClassLen(999, topology.RelNone) != Unreachable {
		t.Error("ClassLen with RelNone must be Unreachable")
	}
	for _, class := range []topology.Rel{topology.RelCustomer, topology.RelSibling, topology.RelPeer, topology.RelProvider} {
		if got := r.ClassLen(999, class); got != Unreachable {
			t.Errorf("ClassLen(999, %s) = %d, want Unreachable", class, got)
		}
	}
	if got := r.ShortestLen(999); got != Unreachable {
		t.Errorf("ShortestLen(999) = %d, want Unreachable", got)
	}
	if p := r.ShortestPath(999); p != nil {
		t.Errorf("ShortestPath(999) = %v, want nil", p)
	}
}

// A destination the graph does not mention still holds its own route;
// nobody else can reach it.
func TestDestinationAbsentFromGraph(t *testing.T) {
	g := line()
	r := Compute(g, 77)
	if r.BestRank(77) != 0 || r.ShortestLen(77) != 0 || r.ClassLen(77, topology.RelCustomer) != 0 {
		t.Errorf("absent destination: BestRank %d ShortestLen %d ClassLen(customer) %d, want 0 0 0",
			r.BestRank(77), r.ShortestLen(77), r.ClassLen(77, topology.RelCustomer))
	}
	if got := r.ClassLen(77, topology.RelPeer); got != Unreachable {
		t.Errorf("ClassLen(dst, peer) = %d, want Unreachable", got)
	}
	if p := r.ShortestPath(77); len(p) != 1 || p[0] != 77 {
		t.Errorf("ShortestPath(dst) = %v, want [AS77]", p)
	}
	for _, a := range g.ASNs() {
		if r.Reachable(a) || r.BestRank(a) != 3 || r.ShortestPath(a) != nil {
			t.Errorf("%v reaches a destination the graph does not mention", a)
		}
	}
}

// ShortestPath walks the same graph Compute did, minus the same edges.
func TestShortestPathHonorsMask(t *testing.T) {
	g := relgraph.New()
	g.Set(2, 1, topology.RelCustomer) // 1 is the customer of 2 and of 3,
	g.Set(3, 1, topology.RelCustomer)
	g.Set(4, 2, topology.RelCustomer) // which are both customers of 4
	g.Set(4, 3, topology.RelCustomer)
	if p := Compute(g, 1).ShortestPath(4); len(p) != 3 || p[1] != 2 {
		t.Errorf("unmasked path = %v, want via AS2 (the lower ASN)", p)
	}
	// An edge naming an AS the graph lacks masks nothing.
	r := Compute(g, 1, relgraph.Edge{A: 1, B: 2}, relgraph.Edge{A: 1, B: 999})
	if p := r.ShortestPath(4); len(p) != 3 || p[1] != 3 {
		t.Errorf("path with 1–2 masked = %v, want via AS3", p)
	}
	// AS2 is left with the provider route down through 4 and 3.
	if p := r.ShortestPath(2); r.BestRank(2) != 2 || len(p) != 4 || p[1] != 4 || p[2] != 3 {
		t.Errorf("AS2 with its own edge masked: rank %d path %v, want rank 2 via AS4 and AS3", r.BestRank(2), p)
	}
}

// TestAllocsCompute pins the array layout's cost model: one computation
// allocates its Result, the three length rows (one block) and the queue —
// measured 3 — however many ASes the relaxation visits.
func TestAllocsCompute(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	small := line()
	big := relgraph.FromTopology(topology.Generate(3, topology.TestConfig()))
	dst := big.ASNs()[0]
	if n := Compute(big, dst); !n.Reachable(big.ASNs()[big.NumASes()-1]) {
		t.Fatal("fixture: the relaxation does not span the big graph")
	}
	for name, run := range map[string]func(){
		"3-AS line":          func() { Compute(small, 1) },
		"generated topology": func() { Compute(big, dst) },
	} {
		if got := testing.AllocsPerRun(100, run); got > 3 {
			t.Errorf("Compute on the %s: %v allocs/op, want <= 3", name, got)
		}
	}
}

func TestSiblingEdgesAreFreeTransit(t *testing.T) {
	g := relgraph.New()
	g.Set(2, 1, topology.RelCustomer) // 1 customer of 2
	g.Set(2, 3, topology.RelSibling)  // 2 and 3 siblings
	g.Set(3, 4, topology.RelPeer)     // 3 peers with 4 — wait, we want 4 reaching 1
	r := Compute(g, 1)
	// 3 reaches 1 through its sibling's customer route.
	if got := r.ClassLen(3, topology.RelSibling); got != 2 {
		t.Errorf("ClassLen(3, sibling) = %d, want 2", got)
	}
	// 4 hears it as a peer route relayed across the sibling: valley-free
	// because sibling routes count as customer routes.
	if got := r.ClassLen(4, topology.RelPeer); got != 3 {
		t.Errorf("ClassLen(4, peer) = %d, want 3", got)
	}
}

// The model must agree with the ground-truth engine on a policy-free
// topology: every ground-truth path's length equals the model's class
// length for the relationship actually used, and the ground-truth next
// hop's class never beats the model's BestRank.
func TestModelMatchesEngineOnPlainTopology(t *testing.T) {
	cfg := topology.TestConfig()
	cfg.HybridLinkRate = 0
	cfg.PartialTransitRate = 0
	cfg.SelectiveExportRate = 0
	cfg.DomesticBiasRate = 0
	cfg.SiblingGroups = 0
	topo := topology.Generate(3, cfg)
	e := bgp.New(topo, 3)
	g := relgraph.FromTopology(topo)

	checked := 0
	for _, p := range topo.OriginatedPrefixes() {
		if checked >= 6 {
			break
		}
		origin := topo.OriginOf(p)
		if topo.AS(origin).ResearchPreference {
			continue // universities still run research preference
		}
		checked++
		res := Compute(g, origin)
		routes := e.ComputePrefix(p)
		for a, rt := range routes {
			if rt.IsOrigin() {
				continue
			}
			if topo.AS(a).ResearchPreference {
				continue
			}
			modelBest := res.BestRank(a)
			chosen := rt.FromRel.Rank()
			if chosen < modelBest {
				t.Fatalf("%s chose class rank %d but model says best available is %d", a, chosen, modelBest)
			}
			if chosen > modelBest {
				t.Fatalf("%s (no policies!) chose class rank %d worse than model best %d (route %v)",
					a, chosen, modelBest, rt)
			}
			// The ground-truth path cannot be shorter than the model's
			// shortest for its class.
			if cl := res.ClassLen(a, rt.FromRel); rt.Path.Len() < cl {
				t.Fatalf("%s ground path len %d < model class len %d", a, rt.Path.Len(), cl)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no prefixes checked")
	}
}

func TestGraphBasics(t *testing.T) {
	g := relgraph.New()
	g.Set(1, 2, topology.RelCustomer)
	if g.Rel(1, 2) != topology.RelCustomer || g.Rel(2, 1) != topology.RelProvider {
		t.Error("Set must record both directions")
	}
	if !g.HasEdge(1, 2) || g.HasEdge(1, 3) {
		t.Error("HasEdge misbehaves")
	}
	g.Set(1, 3, topology.RelPeer)
	if n := g.Neighbors(1); len(n) != 2 || n[0] != 2 || n[1] != 3 {
		t.Errorf("Neighbors = %v", n)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	edges := g.Edges()
	if len(edges) != 2 || edges[0].A != 1 || edges[0].B != 2 {
		t.Errorf("Edges = %v", edges)
	}
	asns := g.ASNs()
	if len(asns) != 3 || asns[0] != asn.ASN(1) {
		t.Errorf("ASNs = %v", asns)
	}
}

// One graph, many readers: the serving path computes and queries models
// on a shared graph from several goroutines at once. Run under -race.
func TestConcurrentReadersShareAGraph(t *testing.T) {
	g := relgraph.FromTopology(topology.Generate(3, topology.TestConfig()))
	asns := g.ASNs()
	dsts := asns[:8]
	want := make([][]asn.ASN, len(dsts))
	shared := make([]*Result, len(dsts))
	for i, dst := range dsts {
		shared[i] = Compute(g, dst)
		want[i] = shared[i].ShortestPath(asns[len(asns)-1])
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, dst := range dsts {
				src := asns[len(asns)-1]
				fresh := Compute(g, dst, relgraph.Edge{A: dst, B: g.Neighbors(dst)[0]})
				if fresh.BestRank(dst) != 0 {
					t.Errorf("masked model toward %v lost its destination", dst)
				}
				if got := shared[i].ShortestPath(src); !slices.Equal(got, want[i]) {
					t.Errorf("shared result toward %v: path %v, want %v", dst, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
