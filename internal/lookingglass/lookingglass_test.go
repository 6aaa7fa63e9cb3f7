package lookingglass

import (
	"math/rand"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/obs"
	"routelab/internal/topology"
)

func fixture(t *testing.T) (*topology.Topology, *bgp.RIB, *Directory) {
	t.Helper()
	topo := topology.Generate(93, topology.TestConfig())
	e := bgp.New(topo, 93, obs.Default())
	cdn := topo.Names["cdn-major"]
	rib := e.ComputeRIB(obs.Default(), topo.AS(cdn).Prefixes, bgp.Readers{DataPlane: topo.AS(cdn).Prefixes}, 0)
	d := Deploy(topo, rib, rand.New(rand.NewSource(93)), 0.5)
	return topo, rib, d
}

func TestDeployCoverage(t *testing.T) {
	topo, _, d := fixture(t)
	if len(d.hosts) == 0 {
		t.Fatal("no servers deployed")
	}
	// No stub or content AS runs one.
	for _, a := range topo.ASesOfClass(topology.Stub) {
		if d.Has(a) {
			t.Fatalf("stub %v runs a looking glass", a)
		}
	}
	full := Deploy(topo, nil, rand.New(rand.NewSource(1)), 1.0)
	transit := len(topo.ASesOfClass(topology.Tier1)) + len(topo.ASesOfClass(topology.LargeISP)) +
		len(topo.ASesOfClass(topology.SmallISP)) + len(topo.ASesOfClass(topology.Research))
	if len(full.hosts) != transit {
		t.Errorf("full coverage = %d, want %d", len(full.hosts), transit)
	}
}

func TestQueryAgreesWithRIB(t *testing.T) {
	topo, rib, d := fixture(t)
	cdn := topo.Names["cdn-major"]
	p := topo.AS(cdn).Prefixes[0]
	addr := p.Nth(1200)
	checked := 0
	for _, a := range topo.ASesOfClass(topology.LargeISP) {
		if !d.Has(a) {
			continue
		}
		e, err := d.Query(a, addr)
		if err != nil {
			continue
		}
		checked++
		rt, ok := rib.Lookup(a, addr)
		if !ok {
			t.Fatalf("%v answered a query without a route", a)
		}
		if e.NextHop != rt.NextHop || e.Path[0] != a {
			t.Fatalf("%v: answer %+v disagrees with RIB %v", a, e, rt)
		}
	}
	if checked == 0 {
		t.Fatal("no queries checked")
	}
}

func TestQueryErrors(t *testing.T) {
	topo, _, d := fixture(t)
	stub := topo.ASesOfClass(topology.Stub)[0]
	if _, err := d.Query(stub, asn.AddrFrom4(10, 0, 0, 1)); err == nil {
		t.Error("query to a server-less AS succeeded")
	}
	// An address outside the computed RIB.
	var lg asn.ASN
	for _, a := range topo.ASesOfClass(topology.LargeISP) {
		if d.Has(a) {
			lg = a
			break
		}
	}
	if lg.IsZero() {
		t.Skip("no large ISP got a server at this seed")
	}
	if _, err := d.Query(lg, asn.AddrFrom4(9, 9, 9, 9)); err == nil {
		t.Error("query for an unrouted address succeeded")
	}
}

func TestHasRouteAndRouteVia(t *testing.T) {
	topo, rib, d := fixture(t)
	cdn := topo.Names["cdn-major"]
	p := topo.AS(cdn).Prefixes[0]
	for _, a := range topo.ASesOfClass(topology.LargeISP) {
		if !d.Has(a) {
			continue
		}
		// A server without a route answers with an error: §4.3's
		// strongest confirmation of a selective announcement.
		_, err := d.RouteVia(a, p, 0)
		rt, ok := rib.Lookup(a, p.Nth(1))
		if has := err == nil; has != ok {
			t.Fatalf("%v has a route = %v (%v) but RIB ok=%v", a, has, err, ok)
		}
		if !ok {
			continue
		}
		via, err := d.RouteVia(a, p, rt.NextHop)
		if err != nil || !via {
			t.Fatalf("%v RouteVia(own next hop) = %v, %v", a, via, err)
		}
		other, err := d.RouteVia(a, p, asn.ASN(999999))
		if err != nil || other {
			t.Fatalf("%v RouteVia(bogus) = %v, %v", a, other, err)
		}
		return
	}
	t.Skip("no large ISP got a server at this seed")
}
