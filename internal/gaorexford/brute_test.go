package gaorexford

import (
	"math/rand"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/relgraph"
	"routelab/internal/topology"
)

// bruteForce computes every AS's shortest export-legal path length per
// class toward dst by Bellman-Ford sweeps over (AS, class) states until
// nothing changes — an independent, obviously-correct (if slow)
// reimplementation of the model, used to cross-check Compute's
// breadth-first search on random graphs.
func bruteForce(g *relgraph.Graph, dst asn.ASN) map[asn.ASN][3]int {
	const inf = int(Unreachable)
	dist := map[asn.ASN][3]int{}
	get := func(a asn.ASN) [3]int {
		if d, ok := dist[a]; ok {
			return d
		}
		return [3]int{inf, inf, inf}
	}
	set := func(a asn.ASN, cls, v int) bool {
		d := get(a)
		if d[cls] <= v {
			return false
		}
		d[cls] = v
		dist[a] = d
		return true
	}
	set(dst, 0, 0)
	// Bellman-Ford style sweeps until fixpoint: slow but simple.
	for changed := true; changed; {
		changed = false
		for _, a := range g.ASNs() {
			da := get(a)
			for _, b := range g.Neighbors(a) {
				rel := g.Rel(b, a) // a's role from b's perspective
				for cls := 0; cls < 3; cls++ {
					if da[cls] >= inf {
						continue
					}
					v := da[cls] + 1
					switch rel {
					case topology.RelCustomer:
						if cls == 0 && set(b, 0, v) {
							changed = true
						}
					case topology.RelSibling:
						if set(b, cls, v) {
							changed = true
						}
					case topology.RelPeer:
						if cls == 0 && set(b, 1, v) {
							changed = true
						}
					case topology.RelProvider:
						if set(b, 2, v) {
							changed = true
						}
					}
				}
			}
		}
	}
	return dist
}

func TestComputeMatchesBruteForce(t *testing.T) {
	roles := []topology.Rel{topology.RelCustomer, topology.RelProvider, topology.RelPeer, topology.RelSibling}
	classRel := []topology.Rel{topology.RelCustomer, topology.RelPeer, topology.RelProvider}
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		g := relgraph.New()
		nAS := 5 + rng.Intn(12)
		nEdges := nAS + rng.Intn(nAS*2)
		for i := 0; i < nEdges; i++ {
			a := asn.ASN(1 + rng.Intn(nAS))
			b := asn.ASN(1 + rng.Intn(nAS))
			if a == b {
				continue
			}
			g.Set(a, b, roles[rng.Intn(len(roles))])
		}
		dst := asn.ASN(1 + rng.Intn(nAS))
		want := bruteForce(g, dst)
		got := Compute(g, dst)
		for _, a := range g.ASNs() {
			for cls := 0; cls < 3; cls++ {
				wv := int(Unreachable)
				if d, ok := want[a]; ok {
					wv = d[cls]
				}
				gv := got.ClassLen(a, classRel[cls])
				if gv != wv {
					t.Fatalf("trial %d: dst=%v as=%v class=%d: got %d want %d",
						trial, dst, a, cls, gv, wv)
				}
			}
		}
	}
}

// Property: ShortestPath, when it exists, has exactly ShortestLen edges,
// starts at the queried AS, ends at the destination, is valley-free, and
// every hop is a graph adjacency that Compute was not told to mask.
func TestShortestPathConsistency(t *testing.T) {
	roles := []topology.Rel{topology.RelCustomer, topology.RelProvider, topology.RelPeer, topology.RelSibling}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		g := relgraph.New()
		nAS := 5 + rng.Intn(12)
		for i := 0; i < nAS*2; i++ {
			a := asn.ASN(1 + rng.Intn(nAS))
			b := asn.ASN(1 + rng.Intn(nAS))
			if a != b {
				g.Set(a, b, roles[rng.Intn(len(roles))])
			}
		}
		dst := asn.ASN(1 + rng.Intn(nAS))
		// The masked variant drops a random quarter of the edges.
		masked := map[topology.LinkKey]bool{}
		var mask []relgraph.Edge
		for _, a := range g.ASNs() {
			for _, b := range g.Neighbors(a) {
				if a < b && rng.Intn(4) == 0 {
					masked[topology.LinkKey{Lo: a, Hi: b}] = true
					mask = append(mask, relgraph.Edge{A: a, B: b})
				}
			}
		}
		for variant, res := range []*Result{Compute(g, dst), Compute(g, dst, mask...)} {
			for _, a := range g.ASNs() {
				if !res.Reachable(a) || a == dst {
					continue
				}
				path := res.ShortestPath(a)
				if path == nil {
					t.Fatalf("trial %d: %v reachable but no path", trial, a)
				}
				if path[0] != a || path[len(path)-1] != dst {
					t.Fatalf("trial %d: path endpoints %v", trial, path)
				}
				if len(path)-1 != res.ShortestLen(a) {
					t.Fatalf("trial %d: path len %d != ShortestLen %d (%v)",
						trial, len(path)-1, res.ShortestLen(a), path)
				}
				if !topology.ValleyFree(path, g.Rel) {
					t.Fatalf("trial %d: path %v is not valley-free", trial, path)
				}
				for i := 0; i+1 < len(path); i++ {
					if !g.HasEdge(path[i], path[i+1]) || variant == 1 && masked[topology.MakeLinkKey(path[i], path[i+1])] {
						t.Fatalf("trial %d, variant %d: hop %v-%v is not an edge Compute saw", trial, variant, path[i], path[i+1])
					}
				}
			}
		}
	}
}
