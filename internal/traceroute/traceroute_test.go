package traceroute

import (
	"math/bits"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/obs"
	"routelab/internal/race"
	"routelab/internal/topology"
)

// fixture computes a small RIB over a generated topology.
type fixture struct {
	topo *topology.Topology
	rib  *bgp.RIB
	dst  asn.Addr
	dstA asn.ASN
}

func newFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	topo := topology.Generate(seed, topology.TestConfig())
	e := bgp.New(topo, seed, obs.Default())
	cdn := topo.Names["cdn-major"]
	prefixes := topo.AS(cdn).Prefixes
	rib := e.ComputeRIB(obs.Default(), prefixes, bgp.Readers{DataPlane: prefixes}, 0)
	return &fixture{topo: topo, rib: rib, dst: prefixes[0].Nth(50), dstA: cdn}
}

func TestTraceReachesDestination(t *testing.T) {
	f := newFixture(t, 31)
	reached := 0
	for _, src := range f.topo.ASesOfClass(topology.Stub)[:20] {
		x := f.topo.AS(src)
		tr := New(f.topo, f.rib, DefaultConfig())
		res := tr.Trace(src, x.Cities[0], f.dst)
		if !res.Reached {
			continue
		}
		reached++
		if res.TrueASPath[0] != src {
			t.Fatalf("path must start at source: %v", res.TrueASPath)
		}
		if last := res.TrueASPath[len(res.TrueASPath)-1]; last != f.dstA {
			t.Fatalf("path must end at destination AS %v: %v", f.dstA, res.TrueASPath)
		}
		if res.Hops[len(res.Hops)-1].IP != f.dst {
			t.Fatal("final hop must be the destination address")
		}
		// The true AS path must be consistent with ground-truth links.
		for i := 0; i+1 < len(res.TrueASPath); i++ {
			if f.topo.Link(res.TrueASPath[i], res.TrueASPath[i+1]) == nil {
				t.Fatalf("true AS path uses nonexistent link %v-%v",
					res.TrueASPath[i], res.TrueASPath[i+1])
			}
		}
	}
	if reached < 15 {
		t.Fatalf("only %d/20 stubs reached the CDN prefix", reached)
	}
}

func TestTraceDeterministic(t *testing.T) {
	f := newFixture(t, 32)
	src := f.topo.ASesOfClass(topology.Stub)[0]
	city := f.topo.AS(src).Cities[0]
	tr := New(f.topo, f.rib, DefaultConfig())
	a := tr.Trace(src, city, f.dst)
	b := tr.Trace(src, city, f.dst)
	if len(a.Hops) != len(b.Hops) {
		t.Fatal("identical traces differ in hop count")
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			t.Fatalf("hop %d differs", i)
		}
	}
}

func TestArtifactsAppearAtConfiguredRates(t *testing.T) {
	f := newFixture(t, 33)
	cfg := DefaultConfig()
	cfg.NoReplyRate = 0.5 // crank up to make the test statistical
	tr := New(f.topo, f.rib, cfg)
	hops, silent := 0, 0
	for _, src := range f.topo.ASesOfClass(topology.Stub)[:30] {
		res := tr.Trace(src, f.topo.AS(src).Cities[0], f.dst)
		for _, h := range res.Hops {
			hops++
			if h.IP == 0 {
				silent++
			}
		}
	}
	if hops == 0 {
		t.Fatal("no hops at all")
	}
	frac := float64(silent) / float64(hops)
	if frac < 0.2 || frac > 0.7 {
		t.Errorf("no-reply fraction %.2f wildly off the configured 0.5", frac)
	}
}

func TestNoArtifactsWhenRatesZero(t *testing.T) {
	f := newFixture(t, 34)
	cfg := Config{MaxHops: 30, Seed: 1} // all artifact rates zero
	tr := New(f.topo, f.rib, cfg)
	for _, src := range f.topo.ASesOfClass(topology.Stub)[:10] {
		res := tr.Trace(src, f.topo.AS(src).Cities[0], f.dst)
		for i, h := range res.Hops {
			if h.IP == 0 {
				t.Fatalf("silent hop %d with zero NoReplyRate", i)
			}
			if topology.IsIXPAddr(h.IP) {
				t.Fatalf("IXP hop with zero IXPRate")
			}
		}
	}
}

func TestTraceUnroutedDestination(t *testing.T) {
	f := newFixture(t, 35)
	src := f.topo.ASesOfClass(topology.Stub)[0]
	// An address nobody announces and nobody routes.
	bogus := asn.AddrFrom4(9, 9, 9, 9)
	tr := New(f.topo, f.rib, DefaultConfig())
	res := tr.Trace(src, f.topo.AS(src).Cities[0], bogus)
	if res.Reached {
		t.Error("unrouted destination reported as reached")
	}
}

func TestHopCitiesFollowLinkGeography(t *testing.T) {
	f := newFixture(t, 36)
	tr := New(f.topo, f.rib, Config{MaxHops: 30, Seed: 1})
	src := f.topo.ASesOfClass(topology.Stub)[3]
	res := tr.Trace(src, f.topo.AS(src).Cities[0], f.dst)
	for _, h := range res.Hops {
		if h.TrueCity == 0 {
			t.Fatalf("hop without ground-truth city: %+v", h)
		}
		if h.IP == 0 || h.IP == f.dst {
			continue
		}
		owner, city, ok := f.topo.LocateRouter(h.IP)
		if !ok {
			continue // third-party or fallback address
		}
		if owner != h.TrueAS && h.TrueAS != 0 {
			// Third-party artifact: address owned by a different AS —
			// allowed, but the owner must be a ground-truth neighbor.
			if f.topo.Link(owner, h.TrueAS) == nil {
				t.Fatalf("hop address owner %v unrelated to true AS %v", owner, h.TrueAS)
			}
		}
		_ = city
	}
}

// TestAllocsTrace pins what a traceroute may allocate: the two slices it
// returns, grown by doubling — never an AS path per hop, which is what
// forwarding on RIB.Lookup cost (one or two allocations at each of the
// four or five ASes a probe crosses).
func TestAllocsTrace(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	f := newFixture(t, 31)
	tr := New(f.topo, f.rib, DefaultConfig())
	var worst float64
	for _, src := range f.topo.ASesOfClass(topology.Stub)[:20] {
		city := f.topo.AS(src).Cities[0]
		var res Trace
		got := testing.AllocsPerRun(20, func() { res = tr.Trace(src, city, f.dst) })
		worst = max(worst, got)
		// Doubling from empty reaches n elements in about log2(n)+1 steps.
		if ceiling := float64(bits.Len(uint(len(res.Hops))) + bits.Len(uint(len(res.TrueASPath))) + 2); got > ceiling {
			t.Errorf("Trace from %s (%d hops across %d ASes): %v allocs, want <= %v", src, len(res.Hops), len(res.TrueASPath), got, ceiling)
		}
	}
	t.Logf("at most %v allocs per trace", worst)
}
