package peering

import (
	"reflect"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/obs"
	"routelab/internal/topology"
)

// newTestbed builds the testbed of one TestConfig world, its engine
// recording on rec.
func newTestbed(t *testing.T, seed int64, rec *obs.Registry) (*Testbed, *topology.Topology) {
	t.Helper()
	topo := topology.Generate(seed, topology.TestConfig())
	tb, err := NewTestbed(bgp.New(topo, seed, rec))
	if err != nil {
		t.Fatal(err)
	}
	return tb, topo
}

func TestTestbedShape(t *testing.T) {
	tb, topo := newTestbed(t, 61, obs.Default())
	if len(tb.Muxes) != 7 {
		t.Fatalf("%d muxes, want 7", len(tb.Muxes))
	}
	if len(tb.Prefixes) < 2 {
		t.Fatalf("%d prefixes, want >= 2", len(tb.Prefixes))
	}
	for _, m := range tb.Muxes {
		if topo.Rel(tb.Origin, m) != topology.RelProvider {
			t.Errorf("mux %v is not a provider of the testbed AS", m)
		}
	}
}

func TestNewTestbedRequiresHandles(t *testing.T) {
	b := topology.NewBuilder()
	b.AS(1, topology.Stub, "")
	if _, err := NewTestbed(bgp.New(b.Build(), 1, obs.Default())); err == nil {
		t.Error("testbed without handles must fail")
	}
}

func TestDiscoverAlternatesPreferenceOrder(t *testing.T) {
	tb, topo := newTestbed(t, 61, obs.Default())
	// Target: a university's commercial provider (a transit AS that is
	// guaranteed to sit on paths toward PEERING).
	mux := tb.Muxes[0]
	var target asn.ASN
	for _, n := range topo.Neighbors(mux) {
		if n.Role == topology.RelProvider && topo.AS(n.ASN).Class == topology.LargeISP {
			target = n.ASN
			break
		}
	}
	if target.IsZero() {
		// Fall back to the research backbone.
		for _, n := range topo.Neighbors(mux) {
			if n.Role == topology.RelProvider {
				target = n.ASN
				break
			}
		}
	}
	res := tb.DiscoverAlternates(tb.Prefixes[0], []asn.ASN{target}, 1)[0]
	if len(res.Steps) == 0 {
		t.Fatal("no routes discovered")
	}
	if res.Announcements < len(res.Steps) {
		t.Errorf("announcements %d < steps %d", res.Announcements, len(res.Steps))
	}
	// Each step's next hop must be new (poisoning removes it).
	seen := map[asn.ASN]bool{}
	for i, s := range res.Steps {
		nh := s.Route.NextHop
		if seen[nh] {
			t.Fatalf("step %d reuses poisoned next hop %v", i, nh)
		}
		seen[nh] = true
		if i > 0 && len(s.PoisonedSoFar) != i {
			t.Errorf("step %d carries %d poisons, want %d", i, len(s.PoisonedSoFar), i)
		}
		// The poisoned announcement's path must show the AS_SET sandwich
		// for every step after the first.
		if i > 0 && !s.Route.Path.HasSet() {
			t.Errorf("step %d route lacks the poisoned AS_SET: %v", i, s.Route.Path)
		}
	}
	if !res.Exhausted && len(res.Steps) >= maxAlternateRounds {
		t.Error("discovery hit the safety bound without exhausting routes")
	}
}

func TestMagnetAgingAndMoves(t *testing.T) {
	tb, topo := newTestbed(t, 62, obs.Default())
	// Observe every transit AS (it is cheap at test scale).
	var observe []asn.ASN
	for _, cls := range []topology.Class{topology.Tier1, topology.LargeISP, topology.Research} {
		observe = append(observe, topo.ASesOfClass(cls)...)
	}
	res := tb.Magnet(tb.Prefixes[0], 0, observe)
	if len(res.Observations) == 0 {
		t.Fatal("no observations")
	}
	moved, kept := 0, 0
	for _, o := range res.Observations {
		if o.Moved {
			moved++
		} else {
			kept++
		}
		if len(o.Alternatives) == 0 {
			t.Fatalf("%v has a best route but no alternatives listed", o.AS)
		}
		// The after-route must be among the alternatives (it is the most
		// preferred one).
		if o.Alternatives[0].NextHop != o.After.NextHop {
			t.Errorf("%v: best alternative %v != after route %v",
				o.AS, o.Alternatives[0].NextHop, o.After.NextHop)
		}
	}
	if kept == 0 {
		t.Error("nobody kept the magnet route — ages are not working")
	}
	t.Logf("magnet: %d moved, %d kept", moved, kept)
}

func TestMagnetDifferentMagnetsDiffer(t *testing.T) {
	tb, topo := newTestbed(t, 63, obs.Default())
	observe := topo.ASesOfClass(topology.LargeISP)
	a := tb.Magnet(tb.Prefixes[0], 0, observe)
	b := tb.Magnet(tb.Prefixes[0], 1, observe)
	if a.Magnet == b.Magnet {
		t.Fatal("different mux indexes produced the same magnet")
	}
	// At least some AS should behave differently across magnets.
	diff := false
	bm := map[asn.ASN]MagnetObservation{}
	for _, o := range b.Observations {
		bm[o.AS] = o
	}
	for _, o := range a.Observations {
		if ob, ok := bm[o.AS]; ok && ob.Before.NextHop != o.Before.NextHop {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("magnet location had no effect on any observed AS")
	}
}

func TestDiscoverAlternatesDeterministic(t *testing.T) {
	tb, topo := newTestbed(t, 64, obs.Default())
	target := topo.Names["mux-0"]
	a := tb.DiscoverAlternates(tb.Prefixes[0], []asn.ASN{target}, 1)[0]
	b := tb.DiscoverAlternates(tb.Prefixes[0], []asn.ASN{target}, 1)[0]
	if len(a.Steps) != len(b.Steps) || a.Announcements != b.Announcements {
		t.Fatalf("nondeterministic discovery: %d/%d vs %d/%d",
			len(a.Steps), a.Announcements, len(b.Steps), b.Announcements)
	}
	for i := range a.Steps {
		if a.Steps[i].Route.NextHop != b.Steps[i].Route.NextHop {
			t.Fatalf("step %d differs", i)
		}
	}
}

func TestDiscoverAlternatesUnreachableTarget(t *testing.T) {
	tb, topo := newTestbed(t, 65, obs.Default())
	// A cable operator may have no route toward PEERING prefixes (its
	// only neighbors are its customers and their exports are limited).
	var unreachable asn.ASN
	for _, a := range topo.ASesOfClass(topology.CableOp) {
		res := tb.DiscoverAlternates(tb.Prefixes[0], []asn.ASN{a}, 1)[0]
		if len(res.Steps) == 0 {
			unreachable = a
			if !res.Exhausted {
				t.Errorf("routeless target should report Exhausted")
			}
			if res.Announcements != 1 {
				t.Errorf("routeless target used %d announcements", res.Announcements)
			}
		}
	}
	_ = unreachable // some seeds route everywhere; absence is fine
}

func TestMagnetObservationSubset(t *testing.T) {
	tb, topo := newTestbed(t, 66, obs.Default())
	// Observing a subset yields exactly that subset (those with routes).
	observe := topo.ASesOfClass(topology.Tier1)[:2]
	res := tb.Magnet(tb.Prefixes[0], 0, observe)
	if len(res.Observations) > len(observe) {
		t.Fatalf("%d observations from %d observed ASes", len(res.Observations), len(observe))
	}
	for _, o := range res.Observations {
		found := false
		for _, a := range observe {
			if a == o.AS {
				found = true
			}
		}
		if !found {
			t.Fatalf("observation for unrequested AS %v", o.AS)
		}
	}
}

// referenceDiscover is the §3.2 discovery loop for one target on its
// own fork of the anycast base, poisoning and reconverging round by
// round: the reference DiscoverAlternates must agree with.
func referenceDiscover(tb *Testbed, prefix asn.Prefix, target asn.ASN) AlternateResult {
	c := tb.AnycastBase(prefix).Fork()
	res := AlternateResult{Target: target, Prefix: prefix}
	res.Announcements = 1
	var poisoned []asn.ASN
	for round := 0; round < maxAlternateRounds; round++ {
		rt, ok := c.Best(target)
		if !ok {
			res.Exhausted = true
			break
		}
		res.Steps = append(res.Steps, AlternateStep{
			Route:         rt,
			PoisonedSoFar: append([]asn.ASN(nil), poisoned...),
		})
		next := rt.NextHop
		if next.IsZero() || next == tb.Origin {
			res.Exhausted = true
			break
		}
		poisoned = append(poisoned, next)
		c.Announce(bgp.Announcement{Origin: tb.Origin, Poisoned: poisoned})
		c.Converge()
		res.Announcements++
	}
	c.Release()
	return res
}

// TestDiscoverAlternatesMatchesReference: discovering every AS of a
// world at once, on one worker or four, gives each target exactly the
// steps, announcements and outcome of its own poisoning loop, and so
// does discovering it alone. The walk must also share work: fewer
// convergences than the per-target loops.
func TestDiscoverAlternatesMatchesReference(t *testing.T) {
	for _, seed := range []int64{61, 67} {
		rec := obs.NewRegistry(nil)
		converges := rec.Counter("bgp.converge.calls")
		tb, topo := newTestbed(t, seed, rec)
		all, prefix := topo.ASNs(), tb.Prefixes[0]
		tb.AnycastBase(prefix)
		c0 := converges.Value()
		want := make([]AlternateResult, len(all))
		poisoned := false
		for i, a := range all {
			want[i] = referenceDiscover(tb, prefix, a)
			poisoned = poisoned || len(want[i].Steps) > 1
		}
		if !poisoned {
			t.Fatalf("seed %d: no target needed a second round; the walk went untested", seed)
		}
		refConverges := converges.Value() - c0
		for _, w := range []int{1, 4} {
			c0 = converges.Value()
			got := tb.DiscoverAlternates(prefix, all, w)
			if n := converges.Value() - c0; n >= refConverges {
				t.Errorf("seed %d workers %d: the walk converged %d times, the per-target loops %d", seed, w, n, refConverges)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d workers %d: %d results for %d targets", seed, w, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("seed %d workers %d: target %v differs from its own loop:\n got %+v\nwant %+v", seed, w, all[i], got[i], want[i])
				}
			}
		}
		for i, a := range all {
			if got := tb.DiscoverAlternates(prefix, []asn.ASN{a}, 1)[0]; !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("seed %d: single-target discovery of %v differs from its own loop", seed, a)
			}
		}
	}
}
