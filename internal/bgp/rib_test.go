package bgp

import (
	"reflect"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/topology"
)

func ribFixture(t *testing.T) (*topology.Topology, *RIB) {
	t.Helper()
	topo := topology.Generate(99, topology.TestConfig())
	e := New(topo, 99)
	cdn := topo.Names["cdn-major"]
	rib := e.ComputeRIB(topo.AS(cdn).Prefixes, 2)
	return topo, rib
}

func TestRIBRouteAndPrefixes(t *testing.T) {
	topo, rib := ribFixture(t)
	cdn := topo.Names["cdn-major"]
	if len(rib.Prefixes()) != len(topo.AS(cdn).Prefixes) {
		t.Fatalf("indexed %d prefixes", len(rib.Prefixes()))
	}
	// Prefixes are ordered longest mask first.
	for i := 1; i < len(rib.Prefixes()); i++ {
		if rib.Prefixes()[i-1].Len < rib.Prefixes()[i].Len {
			t.Fatal("prefix index not longest-first")
		}
	}
	p := topo.AS(cdn).Prefixes[0]
	if _, ok := rib.Route(cdn, p); !ok {
		t.Fatal("origin lacks its own route")
	}
	if _, ok := rib.Route(99999, p); ok {
		t.Fatal("unknown AS has a route")
	}
}

func TestRIBLookupLongestMatch(t *testing.T) {
	topo, rib := ribFixture(t)
	cdn := topo.Names["cdn-major"]
	stub := topo.ASesOfClass(topology.Stub)[0]
	// An address inside a /24 also covered by the /18: the lookup must
	// return the more specific route when the AS holds one.
	var p24 asn.Prefix
	for _, p := range topo.AS(cdn).Prefixes {
		if p.Len == 24 {
			p24 = p
			break
		}
	}
	if p24.IsZero() {
		t.Skip("major has no /24 at this seed")
	}
	rt, ok := rib.Lookup(stub, p24.Nth(7))
	if !ok {
		t.Fatal("stub cannot reach the /24")
	}
	if rt.Prefix != p24 {
		// Selective announcement may hide the /24 from this stub; then
		// the covering /18 is correct longest-match behavior.
		if rt.Prefix.Len >= p24.Len {
			t.Fatalf("lookup returned %v for an address in %v", rt.Prefix, p24)
		}
	}
	if _, ok := rib.Lookup(stub, asn.AddrFrom4(9, 9, 9, 9)); ok {
		t.Fatal("lookup matched an uncovered address")
	}
}

func TestRIBASPath(t *testing.T) {
	topo, rib := ribFixture(t)
	cdn := topo.Names["cdn-major"]
	p := topo.AS(cdn).Prefixes[0]
	stub := topo.ASesOfClass(topology.Stub)[3]
	path := rib.ASPath(stub, p)
	if len(path) < 2 {
		t.Fatalf("path = %v", path)
	}
	if path[0] != stub || path[len(path)-1] != cdn {
		t.Fatalf("path endpooints: %v", path)
	}
	if rib.ASPath(stub, asn.NewPrefix(asn.AddrFrom4(9, 0, 0, 0), 24)) != nil {
		t.Fatal("path for an uncovered prefix")
	}
}

func TestRIBRoutesForShared(t *testing.T) {
	topo, rib := ribFixture(t)
	cdn := topo.Names["cdn-major"]
	p := topo.AS(cdn).Prefixes[0]
	// The columnar RIB and a lone computation of the same prefix agree
	// on every AS, route or none.
	single := New(topo, 99).ComputePrefix(p)
	if len(single) < topo.NumASes()/2 {
		t.Fatalf("only %d ASes hold a route to the major", len(single))
	}
	for _, a := range topo.ASNs() {
		got, ok := rib.Route(a, p)
		want, held := single[a]
		if ok != held || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RIB %v (%v), lone computation %v (%v)", a, got, ok, want, held)
		}
	}
}

func TestComputeFullRIBMatchesPerPrefix(t *testing.T) {
	topo := topology.Generate(101, topology.TestConfig())
	e := New(topo, 101)
	prefixes := topo.OriginatedPrefixes()[:6]
	rib := e.ComputeRIB(prefixes, 3) // parallel workers
	for _, p := range prefixes {
		single := e.ComputePrefix(p)
		for a, want := range single {
			got, ok := rib.Route(a, p)
			if !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("parallel RIB diverges from single computation at %v / %v", a, p)
			}
		}
	}
}

func TestComputePrefixUnknownOrigin(t *testing.T) {
	topo := topology.Generate(101, topology.TestConfig())
	e := New(topo, 101)
	if m := e.ComputePrefix(asn.NewPrefix(asn.AddrFrom4(9, 0, 0, 0), 24)); m != nil {
		t.Fatal("unknown prefix produced routes")
	}
}
