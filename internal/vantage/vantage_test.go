package vantage

import (
	"math/rand"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/topology"
)

func smallRIB(t *testing.T) (*topology.Topology, *bgp.RIB, []asn.ASN) {
	t.Helper()
	topo := topology.Generate(13, topology.TestConfig())
	e := bgp.New(topo, 13)
	// Keep it quick: only the content majors' prefixes.
	var prefixes []asn.Prefix
	for i := 0; i < 3; i++ {
		a := topo.Names["content-"+string(rune('0'+i))]
		prefixes = append(prefixes, topo.AS(a).Prefixes...)
	}
	rib := e.ComputeRIB(prefixes, bgp.Readers{DataPlane: prefixes}, 0)
	peers := SelectPeers(topo, rand.New(rand.NewSource(13)), 20)
	return topo, rib, peers
}

func TestCollectShapes(t *testing.T) {
	topo, rib, peers := smallRIB(t)
	s := Collect(rib, peers, 3)
	if s.Epoch != 3 {
		t.Errorf("epoch = %d", s.Epoch)
	}
	if len(s.Entries) == 0 {
		t.Fatal("no entries collected")
	}
	for i := range s.Entries {
		e := &s.Entries[i]
		if e.Path[0] != e.Peer {
			t.Fatalf("path must start at the peer: %v", e)
		}
		origin := e.Path[len(e.Path)-1]
		if got := topo.OriginOf(e.Prefix); got != origin {
			t.Fatalf("path origin %v != prefix origin %v", origin, got)
		}
	}
}

func TestOriginNeighbors(t *testing.T) {
	_, rib, peers := smallRIB(t)
	s := Collect(rib, peers, 0)
	on := s.OriginNeighbors()
	if len(on) == 0 {
		t.Fatal("no origin-neighbor evidence")
	}
	for p, nbrs := range on {
		if len(nbrs) == 0 {
			t.Errorf("prefix %s has empty neighbor evidence", p)
		}
	}
}

func TestObservedLinksAreRealAdjacencies(t *testing.T) {
	topo, rib, peers := smallRIB(t)
	s := Collect(rib, peers, 0)
	links := s.ObservedLinks()
	if len(links) == 0 {
		t.Fatal("no links observed")
	}
	for k := range links {
		if topo.Link(k.Lo, k.Hi) == nil {
			t.Fatalf("observed link %v-%v is not a ground-truth adjacency", k.Lo, k.Hi)
		}
	}
}
