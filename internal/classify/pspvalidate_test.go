package classify

import (
	"math/rand"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/lookingglass"
	"routelab/internal/obs"
	"routelab/internal/relgraph"
	"routelab/internal/topology"
)

func TestCollectPSPCases(t *testing.T) {
	g := relgraph.New()
	g.Set(2, 1, topology.RelCustomer) // origin 1, neighbors 2 and 3
	g.Set(3, 1, topology.RelCustomer)
	cx := newContext(g)
	p := asn.NewPrefix(asn.AddrFrom4(10, 0, 0, 0), 24)
	cx.OriginEvidence[p] = map[asn.ASN]bool{2: true}                  // 3 unobserved
	ms := []Measurement{{DstAS: 1, Prefix: p}, {DstAS: 1, Prefix: p}} // dupes collapse
	cases := cx.CollectPSPCases(ms)
	if len(cases) != 1 {
		t.Fatalf("cases = %v", cases)
	}
	if cases[0].Origin != 1 || cases[0].Neighbor != 3 || cases[0].Prefix != p {
		t.Fatalf("case = %+v", cases[0])
	}
}

// End-to-end validation against a real looking-glass deployment: build
// a topology where a content origin selectively announces one prefix,
// then check the validation confirms the masked edge.
func TestValidatePSPConfirms(t *testing.T) {
	b := topology.NewBuilder()
	origin := b.AS(100, topology.Content, "")
	n1 := b.AS(200, topology.LargeISP, "").ASN
	n2 := b.AS(300, topology.LargeISP, "").ASN
	up := b.AS(400, topology.Tier1, "").ASN
	b.Link(origin.ASN, n1, topology.RelProvider)
	b.Link(origin.ASN, n2, topology.RelProvider)
	b.Link(n1, up, topology.RelProvider)
	b.Link(n2, up, topology.RelProvider)
	topo := b.Build()
	p := topo.AS(origin.ASN).Prefixes[0]
	// Ground truth: p goes only to n1.
	origin.SelectiveExport = map[asn.Prefix][]asn.ASN{p: {n1}}

	e := bgp.New(topo, 1, obs.Default())
	rib := e.ComputeRIB(obs.Default(), []asn.Prefix{p}, bgp.Readers{DataPlane: []asn.Prefix{p}}, 0)
	lg := lookingglass.Deploy(topo, rib, rand.New(rand.NewSource(1)), 1.0)

	g := relgraph.New()
	g.Set(n1, origin.ASN, topology.RelCustomer)
	g.Set(n2, origin.ASN, topology.RelCustomer)
	g.Set(up, n1, topology.RelCustomer)
	g.Set(up, n2, topology.RelCustomer)
	cx := newContext(g)
	cx.OriginEvidence[p] = map[asn.ASN]bool{n1: true}

	cases := cx.CollectPSPCases([]Measurement{{DstAS: origin.ASN, Prefix: p}})
	if len(cases) != 1 || cases[0].Neighbor != n2 {
		t.Fatalf("cases = %+v", cases)
	}
	v := cx.ValidatePSP(cases, lg)
	if v.Checked != 1 || v.Confirmed != 1 {
		t.Fatalf("validation = %+v; n2's route server shows its best route NOT via the origin", v)
	}
}

// When the origin actually announces everywhere (the mask was a
// visibility artifact), the neighbor's best route comes straight from
// the origin and the validation must refute the case.
func TestValidatePSPRefutes(t *testing.T) {
	b := topology.NewBuilder()
	origin := b.AS(100, topology.Content, "")
	n1 := b.AS(200, topology.LargeISP, "").ASN
	n2 := b.AS(300, topology.LargeISP, "").ASN
	b.Link(origin.ASN, n1, topology.RelProvider)
	b.Link(origin.ASN, n2, topology.RelProvider)
	topo := b.Build()
	p := topo.AS(origin.ASN).Prefixes[0]

	e := bgp.New(topo, 1, obs.Default())
	rib := e.ComputeRIB(obs.Default(), []asn.Prefix{p}, bgp.Readers{DataPlane: []asn.Prefix{p}}, 0)
	lg := lookingglass.Deploy(topo, rib, rand.New(rand.NewSource(1)), 1.0)

	g := relgraph.New()
	g.Set(n1, origin.ASN, topology.RelCustomer)
	g.Set(n2, origin.ASN, topology.RelCustomer)
	cx := newContext(g)
	cx.OriginEvidence[p] = map[asn.ASN]bool{n1: true} // poor visibility of n2

	v := cx.ValidatePSP(cx.CollectPSPCases([]Measurement{{DstAS: origin.ASN, Prefix: p}}), lg)
	if v.Checked != 1 || v.Confirmed != 0 {
		t.Fatalf("validation = %+v; n2 demonstrably hears the prefix directly", v)
	}
}

func TestValidatePSPNoServers(t *testing.T) {
	g := relgraph.New()
	g.Set(2, 1, topology.RelCustomer)
	cx := newContext(g)
	p := asn.NewPrefix(asn.AddrFrom4(10, 0, 0, 0), 24)
	cx.OriginEvidence[p] = map[asn.ASN]bool{}
	b := topology.NewBuilder()
	b.AS(1, topology.Stub, "")
	lg := lookingglass.Deploy(b.Build(), nil, rand.New(rand.NewSource(1)), 0)
	v := cx.ValidatePSP(cx.CollectPSPCases([]Measurement{{DstAS: 1, Prefix: p}}), lg)
	if v.Checked != 0 || v.NeighborsWithLG != 0 {
		t.Fatalf("validation without servers = %+v", v)
	}
}
