package inference

import (
	"math/rand"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/obs"
	"routelab/internal/relgraph"
	"routelab/internal/topology"
	"routelab/internal/vantage"
)

// feed wraps bare AS paths as the entries of one snapshot, each fed by
// the path's first AS.
func feed(paths ...[]asn.ASN) *vantage.Snapshot {
	s := &vantage.Snapshot{}
	for _, p := range paths {
		e := vantage.Entry{Path: p}
		if len(p) > 0 {
			e.Peer = p[0]
		}
		s.Entries = append(s.Entries, e)
	}
	return s
}

func TestCleanPaths(t *testing.T) {
	g := readPaths(feed(
		[]asn.ASN{1, 2, 3},
		[]asn.ASN{1, 2, 2, 3}, // prepending collapses
		[]asn.ASN{1, 2, 1},    // loop dropped
		[]asn.ASN{4},          // single-AS path kept
		[]asn.ASN{},           // empty dropped
	))
	if len(g.pathEnd) != 3 {
		t.Fatalf("kept %d clean paths, want 3: ends %v of %v", len(g.pathEnd), g.pathEnd, g.pathAS)
	}
	if n := g.pathEnd[1] - g.pathEnd[0]; n != 3 {
		t.Errorf("prepending not collapsed: second path has %d ASes", n)
	}
	if len(g.pathLink) != len(g.pathAS) {
		t.Errorf("%d link slots under %d path ASes", len(g.pathLink), len(g.pathAS))
	}
}

func TestTransitDegrees(t *testing.T) {
	g := readPaths(feed(
		[]asn.ASN{1, 2, 3},
		[]asn.ASN{4, 2, 5},
		[]asn.ASN{1, 3},
	))
	deg := func(a asn.ASN) int32 { return g.deg[g.ids[a]] }
	if deg(2) != 4 {
		t.Errorf("deg[2] = %d, want 4 (neighbors 1,3,4,5)", deg(2))
	}
	if deg(1) != 0 || deg(3) != 0 {
		t.Error("endpoints have no transit degree")
	}
}

func TestFindClique(t *testing.T) {
	asns := []asn.ASN{1, 2, 3, 4, 5}
	deg := []int32{100, 90, 80, 10, 9}
	adj := map[topology.LinkKey]bool{
		topology.MakeLinkKey(1, 2): true,
		topology.MakeLinkKey(1, 3): true,
		topology.MakeLinkKey(2, 3): true,
		topology.MakeLinkKey(1, 4): true, // 4 connects only to 1
	}
	adjacent := func(a, b int32) bool { return adj[topology.MakeLinkKey(asns[a], asns[b])] }
	clique := findClique(asns, deg, adjacent, 10)
	if !clique[0] || !clique[1] || !clique[2] {
		t.Errorf("clique should contain 1,2,3: %v", clique)
	}
	if clique[3] || clique[4] {
		t.Error("low-degree / non-mutual ASes must stay out of the clique")
	}
}

// A prepended path "X A A B" makes A its own upstream on the A–B hop;
// visibility and upward exports are counted on paths as announced, so
// that observation stands (A is at least its own size) unless a sibling
// oracle says an AS is its own organization. Pinned because the
// reference implementation (reference_test.go) behaves so.
func TestPrependingCountsAsUpwardExport(t *testing.T) {
	s := feed([]asn.ASN{9, 1, 1, 2}, []asn.ASN{8, 3}, []asn.ASN{7, 3}, []asn.ASN{6, 3}, []asn.ASN{5, 3})
	if got := InferSnapshot(s, DefaultConfig()).Rel(1, 2); got != topology.RelCustomer {
		t.Errorf("Rel(1, 2) = %s, want customer (seen by 1 of 5 vantage points, exported upward)", got)
	}
}

func TestAggregateLatestTwoWin(t *testing.T) {
	mk := func(role topology.Rel) *relgraph.Graph {
		g := relgraph.New()
		g.Set(1, 2, role)
		return g
	}
	graphs := []*relgraph.Graph{
		mk(topology.RelCustomer), mk(topology.RelCustomer), mk(topology.RelCustomer),
		mk(topology.RelPeer), mk(topology.RelPeer),
	}
	agg := Aggregate(graphs)
	if agg.Rel(1, 2) != topology.RelPeer {
		t.Errorf("latest-two agreement must win: got %s", agg.Rel(1, 2))
	}
}

func TestAggregateMajorityOtherwise(t *testing.T) {
	mk := func(role topology.Rel) *relgraph.Graph {
		g := relgraph.New()
		g.Set(1, 2, role)
		return g
	}
	graphs := []*relgraph.Graph{
		mk(topology.RelCustomer), mk(topology.RelCustomer), mk(topology.RelCustomer),
		mk(topology.RelCustomer), mk(topology.RelPeer),
	}
	agg := Aggregate(graphs)
	if agg.Rel(1, 2) != topology.RelCustomer {
		t.Errorf("majority must win when the last two disagree: got %s", agg.Rel(1, 2))
	}
}

func TestAggregateKeepsStaleLinks(t *testing.T) {
	old := relgraph.New()
	old.Set(1, 2, topology.RelPeer)
	old.Set(2, 3, topology.RelCustomer)
	recent := relgraph.New()
	recent.Set(2, 3, topology.RelCustomer) // link 1-2 vanished
	agg := Aggregate([]*relgraph.Graph{old, old, recent})
	if !agg.HasEdge(1, 2) {
		t.Error("aggregation must keep links from old epochs (the stale-link effect)")
	}
}

func TestAggregateEmpty(t *testing.T) {
	if g := Aggregate(nil); g.NumEdges() != 0 {
		t.Error("empty aggregate should have no edges")
	}
}

// End-to-end calibration: infer over feeds from a generated topology and
// require reasonable (not perfect!) agreement with ground truth. The
// gaps ARE the phenomenon under study, but an inference that is mostly
// wrong would make the downstream experiments meaningless.
func TestInferenceAccuracyOnGeneratedTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	topo := topology.Generate(21, topology.TestConfig())
	e := bgp.New(topo, 21, obs.Default())
	rib := e.ComputeFullRIB(obs.Default(), 0)
	peers := vantage.SelectPeers(topo, rand.New(rand.NewSource(21)), 40)
	if len(peers) == 0 {
		t.Fatal("no vantage peers selected")
	}
	snap := vantage.Collect(rib, peers, 0)
	if len(snap.Entries) == 0 {
		t.Fatal("empty snapshot")
	}
	inferred := InferSnapshot(snap, DefaultConfig())
	truth := relgraph.FromTopology(topo)
	acc := MeasureAccuracy(inferred, truth)
	t.Logf("accuracy: %d/%d labels correct, %d links invisible to monitors, %d phantom",
		acc.Correct, acc.Links, acc.MissingFromInferred, acc.ExtraInInferred)
	if acc.Links == 0 {
		t.Fatal("no overlapping links at all")
	}
	if frac := float64(acc.Correct) / float64(acc.Links); frac < 0.70 {
		t.Errorf("label agreement %.2f below 0.70 — inference too weak to study", frac)
	}
	// The visibility bias must exist: some ground-truth links (edge
	// peering, backups) must be invisible to the monitors.
	if acc.MissingFromInferred == 0 {
		t.Error("monitors saw every link — the visibility bias the paper needs is gone")
	}
	// Phantom links should be rare (paths do not invent adjacencies).
	if acc.ExtraInInferred > acc.Links/10 {
		t.Errorf("%d phantom links is implausibly many", acc.ExtraInInferred)
	}
}

func TestSelectPeersCoreBias(t *testing.T) {
	topo := topology.Generate(5, topology.TestConfig())
	peers := vantage.SelectPeers(topo, rand.New(rand.NewSource(5)), 30)
	if len(peers) == 0 || len(peers) > 30 {
		t.Fatalf("got %d peers", len(peers))
	}
	classes := map[topology.Class]int{}
	for _, p := range peers {
		classes[topo.AS(p).Class]++
	}
	if classes[topology.Tier1] == 0 {
		t.Error("every Tier-1 should feed the monitors")
	}
	if classes[topology.Stub] != 0 {
		t.Error("stub networks do not feed RouteViews")
	}
}
