package bgp_test

import (
	"fmt"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/gaorexford"
	"routelab/internal/obs"
	"routelab/internal/relgraph"
	"routelab/internal/topology"
)

// Example is the API tour: build a tiny hand-made Internet, converge
// BGP over it, poison an announcement the way the PEERING experiments
// do, and judge a routing decision against the Gao–Rexford model.
func Example() {
	// A five-AS Internet: two providers above an origin, one of them
	// also reachable via a peer link.
	//
	//	      t1 ———— t2     (peers)
	//	     /  \      \
	//	   c1    c2     \
	//	     \  /        \
	//	      org ——————(peer)
	b := topology.NewBuilder()
	t1 := b.AS(10, topology.Tier1, "").ASN
	t2 := b.AS(20, topology.Tier1, "").ASN
	c1 := b.AS(31, topology.SmallISP, "").ASN
	c2 := b.AS(32, topology.SmallISP, "").ASN
	org := b.AS(40, topology.Stub, "").ASN
	b.Link(t1, t2, topology.RelPeer)
	b.Link(c1, t1, topology.RelProvider)
	b.Link(c2, t1, topology.RelProvider)
	b.Link(org, c1, topology.RelProvider)
	b.Link(org, c2, topology.RelProvider)
	b.Link(org, t2, topology.RelPeer)
	topo := b.Build()
	prefix := topo.AS(org).Prefixes[0]

	// Converge ground-truth routing for the origin's prefix.
	engine := bgp.New(topo, 1, obs.Default())
	comp := engine.NewComputation(prefix)
	comp.Announce(bgp.Announcement{Origin: org})
	comp.Converge()
	fmt.Println("== converged routes toward", prefix, "==")
	for _, a := range topo.ASNs() {
		if rt, ok := comp.Best(a); ok && !rt.IsOrigin() {
			step, _ := comp.Step(a)
			fmt.Printf("  %-5s via %-5s rel=%-8s path=[%s]  decided by: %s\n",
				a, rt.NextHop, rt.FromRel, rt.Path, step)
		}
	}

	// Poison t1: the origin announces ORG {t1} ORG, so t1's BGP loop
	// prevention drops the route and everyone re-routes around it.
	comp.Announce(bgp.Announcement{Origin: org, Poisoned: []asn.ASN{t1}})
	comp.Converge()
	fmt.Println("\n== after poisoning", t1, "==")
	for _, a := range topo.ASNs() {
		if rt, ok := comp.Best(a); ok && !rt.IsOrigin() {
			fmt.Printf("  %-5s via %-5s path=[%s]\n", a, rt.NextHop, rt.Path)
		}
	}
	if _, ok := comp.Best(t1); !ok {
		fmt.Printf("  %-5s (no route — poisoned)\n", t1)
	}

	// Judge t2's original decision against the Gao-Rexford model the
	// way the paper does: is the chosen neighbor the best relationship
	// class available, and is the path as short as the model's?
	graph := relgraph.FromTopology(topo)
	model := gaorexford.Compute(graph, org)
	fmt.Println("\n== model view at", t2, "toward", org, "==")
	fmt.Printf("  best class rank: %d (0=customer, 1=peer, 2=provider)\n", model.BestRank(t2))
	fmt.Printf("  shortest policy-compliant length: %d\n", model.ShortestLen(t2))
	fmt.Printf("  shortest model path: %v\n", model.ShortestPath(t2))

	// Output:
	// == converged routes toward 0.5.0.0/18 ==
	//   AS10  via AS31  rel=customer path=[31 40]  decided by: intradomain tie-breaker
	//   AS20  via AS40  rel=peer     path=[40]  decided by: shorter path
	//   AS31  via AS40  rel=customer path=[40]  decided by: only route
	//   AS32  via AS40  rel=customer path=[40]  decided by: best relationship
	//
	// == after poisoning AS10 ==
	//   AS20  via AS40  path=[40 {10} 40]
	//   AS31  via AS40  path=[40 {10} 40]
	//   AS32  via AS40  path=[40 {10} 40]
	//   AS10  (no route — poisoned)
	//
	// == model view at AS20 toward AS40 ==
	//   best class rank: 1 (0=customer, 1=peer, 2=provider)
	//   shortest policy-compliant length: 1
	//   shortest model path: [AS20 AS40]
}
