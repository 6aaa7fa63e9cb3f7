package complexrel

import (
	"math/rand"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/topology"
)

func TestHybridLookup(t *testing.T) {
	d := New()
	d.AddHybrid(HybridEntry{A: 1, B: 2, City: 7, Role: topology.RelCustomer})
	if r, ok := d.HybridRole(1, 2, 7); !ok || r != topology.RelCustomer {
		t.Errorf("HybridRole(1,2,7) = %v %v", r, ok)
	}
	// Inverse direction is derived.
	if r, ok := d.HybridRole(2, 1, 7); !ok || r != topology.RelProvider {
		t.Errorf("HybridRole(2,1,7) = %v %v", r, ok)
	}
	if _, ok := d.HybridRole(1, 2, 8); ok {
		t.Error("different city must miss")
	}
	if _, ok := d.HybridRole(1, 3, 7); ok {
		t.Error("different pair must miss")
	}
	if len(d.hybrid)/2 != 1 {
		t.Errorf("hybrid entries = %d", len(d.hybrid)/2)
	}
}

func TestPartialTransitLookup(t *testing.T) {
	d := New()
	p := asn.NewPrefix(asn.AddrFrom4(10, 0, 0, 0), 24)
	q := asn.NewPrefix(asn.AddrFrom4(10, 0, 1, 0), 24)
	d.AddPartial(PartialEntry{A: 1, B: 2, Prefixes: []asn.Prefix{p}})
	if !d.PartialTransit(1, 2, p) || !d.PartialTransit(2, 1, p) {
		t.Error("partial transit must match either order")
	}
	if d.PartialTransit(1, 2, q) {
		t.Error("uncovered prefix must miss")
	}
	if len(d.partial) != 1 {
		t.Errorf("partial-transit pairs = %d", len(d.partial))
	}
}

func TestFromGroundTruthFullCoverage(t *testing.T) {
	topo := topology.Generate(19, topology.TestConfig())
	d := FromGroundTruth(topo, rand.New(rand.NewSource(19)), 1.0)
	wantHybrid, wantPartial := 0, 0
	topo.Links(func(l *topology.Link) {
		wantHybrid += len(l.HybridRoles)
		if l.PartialTransitFor != nil {
			wantPartial++
		}
	})
	if len(d.hybrid)/2 != wantHybrid {
		t.Errorf("hybrid entries = %d, want %d", len(d.hybrid)/2, wantHybrid)
	}
	if len(d.partial) != wantPartial {
		t.Errorf("partial-transit pairs = %d, want %d", len(d.partial), wantPartial)
	}
	// Every entry must agree with ground truth.
	topo.Links(func(l *topology.Link) {
		for city, role := range l.HybridRoles {
			if got, ok := d.HybridRole(l.Lo, l.Hi, city); !ok || got != role {
				t.Errorf("hybrid %v-%v@%d = %v %v, want %v", l.Lo, l.Hi, city, got, ok, role)
			}
		}
		for p := range l.PartialTransitFor {
			if !d.PartialTransit(l.Lo, l.Hi, p) {
				t.Errorf("partial %v-%v %s missing", l.Lo, l.Hi, p)
			}
		}
	})
}

func TestFromGroundTruthPartialCoverage(t *testing.T) {
	topo := topology.Generate(19, topology.TestConfig())
	full := FromGroundTruth(topo, rand.New(rand.NewSource(1)), 1.0)
	none := FromGroundTruth(topo, rand.New(rand.NewSource(1)), 0.0)
	if len(none.hybrid)/2 != 0 || len(none.partial) != 0 {
		t.Error("zero coverage must be empty")
	}
	if len(full.hybrid)/2 == 0 {
		t.Skip("topology generated no hybrid links")
	}
	half := FromGroundTruth(topo, rand.New(rand.NewSource(1)), 0.5)
	if len(half.hybrid)/2 > len(full.hybrid)/2 {
		t.Error("partial coverage cannot exceed full")
	}
}

func TestFromGroundTruthDeterministic(t *testing.T) {
	topo := topology.Generate(23, topology.TestConfig())
	a := FromGroundTruth(topo, rand.New(rand.NewSource(5)), 0.7)
	b := FromGroundTruth(topo, rand.New(rand.NewSource(5)), 0.7)
	if len(a.hybrid)/2 != len(b.hybrid)/2 || len(a.partial) != len(b.partial) {
		t.Error("same seed must extract the same dataset")
	}
}
