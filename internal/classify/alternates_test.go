package classify

import (
	"slices"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/peering"
	"routelab/internal/relgraph"
	"routelab/internal/topology"
)

func mkRoute(prefix asn.Prefix, nextHop asn.ASN, rest []asn.ASN, poisoned []asn.ASN) bgp.Route {
	p := asn.PathFromASNs(rest...)
	if len(poisoned) > 0 {
		p = p.PrependSet(poisoned).Prepend(rest[len(rest)-1])
	}
	p = p.Prepend(nextHop)
	return bgp.Route{Prefix: prefix, Path: p, NextHop: nextHop}
}

func TestClassifyAlternatesOrdered(t *testing.T) {
	g := relgraph.New()
	g.Set(100, 1, topology.RelCustomer) // 1 is customer of target 100
	g.Set(100, 2, topology.RelPeer)
	g.Set(100, 3, topology.RelProvider)
	cx := newContext(g)
	p := asn.NewPrefix(asn.AddrFrom4(10, 0, 0, 0), 24)
	run := peering.AlternateResult{
		Target: 100,
		Prefix: p,
		Steps: []peering.AlternateStep{
			{Route: mkRoute(p, 1, []asn.ASN{500}, nil)},
			{Route: mkRoute(p, 2, []asn.ASN{500}, []asn.ASN{1})},
			{Route: mkRoute(p, 3, []asn.ASN{500}, []asn.ASN{1, 2})},
		},
	}
	if got := cx.ClassifyAlternates(run); got != AltBestShort {
		t.Errorf("ordered run = %v, want Best & Shortest", got)
	}
}

// The §4.4 case-study fixture: a university U whose most-preferred route
// runs through its research backbone (CAIDA: provider) with an
// unnecessary detour; after poisoning, U uses its settlement-free peer
// with a shorter path. Both the Best and the Short properties fail.
func TestClassifyAlternatesCaseStudyViolation(t *testing.T) {
	g := relgraph.New()
	g.Set(100, 11537, topology.RelProvider) // Internet2 analogue: provider
	g.Set(100, 20080, topology.RelPeer)     // AMPATH analogue: peer
	cx := newContext(g)
	p := asn.NewPrefix(asn.AddrFrom4(10, 0, 0, 0), 24)
	run := peering.AlternateResult{
		Target: 100,
		Prefix: p,
		Steps: []peering.AlternateStep{
			// First choice: via the provider, with a detour (the second
			// route is a SUFFIX of the first).
			{Route: mkRoute(p, 11537, []asn.ASN{20080, 64500, 65000}, nil)},
			// After poisoning Internet2: directly via the peer.
			{Route: mkRoute(p, 20080, []asn.ASN{64500, 65000}, []asn.ASN{11537})},
		},
	}
	if got := cx.ClassifyAlternates(run); got != AltNeither {
		t.Errorf("case-study run = %v, want Neither (a §4.4 violation)", got)
	}
}

func TestClassifyAlternatesBestOnly(t *testing.T) {
	g := relgraph.New()
	g.Set(100, 1, topology.RelCustomer)
	g.Set(100, 2, topology.RelCustomer)
	cx := newContext(g)
	p := asn.NewPrefix(asn.AddrFrom4(10, 0, 0, 0), 24)
	run := peering.AlternateResult{
		Target: 100,
		Prefix: p,
		Steps: []peering.AlternateStep{
			// Same class, but the first path is LONGER: Short fails.
			{Route: mkRoute(p, 1, []asn.ASN{7, 8, 9}, nil)},
			{Route: mkRoute(p, 2, []asn.ASN{9}, []asn.ASN{1})},
		},
	}
	if got := cx.ClassifyAlternates(run); got != AltBestOnly {
		t.Errorf("got %v, want Best only", got)
	}
}

func TestSummarizeAlternates(t *testing.T) {
	g := relgraph.New()
	g.Set(100, 1, topology.RelCustomer)
	g.Set(100, 2, topology.RelPeer)
	g.Set(1, 500, topology.RelCustomer)
	// Edge 2-500 is MISSING from the graph: only the poisoned route
	// reveals it.
	cx := newContext(g)
	p := asn.NewPrefix(asn.AddrFrom4(10, 0, 0, 0), 24)
	runs := []peering.AlternateResult{{
		Target: 100,
		Prefix: p,
		Steps: []peering.AlternateStep{
			{Route: mkRoute(p, 1, []asn.ASN{500}, nil)},
			{Route: mkRoute(p, 2, []asn.ASN{500}, []asn.ASN{1}), PoisonedSoFar: []asn.ASN{1}},
		},
	}}
	s := cx.SummarizeAlternates(runs)
	if s.Targets != 1 {
		t.Fatalf("Targets = %d", s.Targets)
	}
	if s.Verdicts[AltBestShort] != 1 {
		t.Errorf("Verdicts = %v", s.Verdicts)
	}
	if s.Announcements != 2 {
		t.Errorf("Announcements = %d, want 2", s.Announcements)
	}
	if s.LinksMissing == 0 || s.LinksOnlyPoisoned == 0 {
		t.Errorf("poison-only missing link not counted: %+v", s)
	}
}

// TestSequenceIgnoringPoison: the engine's sandwich "O {P} O" drops to
// the path the route would have had unpoisoned, and the length the
// verdicts compare is that path's.
func TestSequenceIgnoringPoison(t *testing.T) {
	p := asn.NewPrefix(asn.AddrFrom4(10, 0, 0, 0), 24)
	plain := mkRoute(p, 118, []asn.ASN{1109}, nil)
	poisoned := mkRoute(p, 118, []asn.ASN{1109}, []asn.ASN{131})
	if got := poisoned.Path.String(); got != "118 1109 {131} 1109" {
		t.Fatalf("poisoned path %q", got)
	}
	for _, r := range []bgp.Route{plain, poisoned} {
		got := SequenceIgnoringPoison(r.Path)
		if !slices.Equal(got, []asn.ASN{118, 1109}) {
			t.Errorf("%v: %v, want [118 1109]", r.Path, got)
		}
		if pathLenIgnoringPoison(r) != 2 {
			t.Errorf("%v: length %d ignoring poison, want 2", r.Path, pathLenIgnoringPoison(r))
		}
	}
}
