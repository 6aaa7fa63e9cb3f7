package whatif_test

import (
	"strings"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/peering"
	"routelab/internal/topology"
	"routelab/internal/whatif"
)

// world builds the standard test world and its PEERING testbed.
func world(t testing.TB, seed int64) (*topology.Topology, *bgp.Engine, *peering.Testbed) {
	t.Helper()
	topo := topology.Generate(seed, topology.TestConfig())
	engine := bgp.New(topo, seed)
	tb, err := peering.NewTestbed(engine)
	if err != nil {
		t.Fatal(err)
	}
	return topo, engine, tb
}

// scratchBase converges the origin's plain announcement of p from
// scratch, sharing no state with any other computation: the rebuild
// path the fork is measured and checked against.
func scratchBase(t testing.TB, engine *bgp.Engine, p asn.Prefix, origin asn.ASN) *bgp.Computation {
	t.Helper()
	c := engine.NewComputation(p)
	c.Announce(bgp.Announcement{Origin: origin})
	if !c.Converge() {
		t.Fatalf("from-scratch announcement of %s did not converge", p)
	}
	return c
}

// nonNeighbor finds the first AS (ascending) not adjacent to a —
// deterministic for a given topology.
func nonNeighbor(t *testing.T, topo *topology.Topology, a asn.ASN) asn.ASN {
	t.Helper()
	for _, b := range topo.ASNs() {
		if b != a && topo.Link(a, b) == nil {
			return b
		}
	}
	t.Fatalf("%s is adjacent to everyone", a)
	return 0
}

// liveMux finds the first mux whose best route in the converged anycast
// comes straight from the origin. The PEERING origin exports
// selectively (paper §3.2), so most muxes hear the prefix from another
// mux's side and their own origin uplink carries nothing: failing or
// de-preferring such a link is a no-op. The live mux's uplink is one a
// delta can actually break.
func liveMux(t testing.TB, tb *peering.Testbed, base *bgp.Base) asn.ASN {
	t.Helper()
	for _, m := range tb.Muxes {
		if r, ok := base.Best(m); ok && r.NextHop == tb.Origin {
			return m
		}
	}
	t.Fatal("no mux routes directly through the origin")
	return 0
}

// peeringPair finds the first (ascending) pair of ASes a new link could
// join — non-adjacent with a shared city — that want accepts (nil
// accepts any). Deterministic for a given topology.
func peeringPair(t testing.TB, topo *topology.Topology, want func(a, b asn.ASN) bool) (asn.ASN, asn.ASN) {
	t.Helper()
	all := topo.ASNs()
	for i, a := range all {
		for _, b := range all[i+1:] {
			if _, err := topo.ProposeLink(a, b, topology.RelProvider); err != nil {
				continue
			}
			if want == nil || want(a, b) {
				return a, b
			}
		}
	}
	t.Fatal("no acceptable peerable pair in the topology")
	return 0, 0
}

func TestCompileValidation(t *testing.T) {
	topo, _, tb := world(t, 1)
	origin, mux := tb.Origin, tb.Muxes[0]
	stranger := nonNeighbor(t, topo, origin)
	pa, pb := peeringPair(t, topo, nil)

	bad := []whatif.Delta{
		{Kind: "no_such_kind"},
		{},
		{Kind: whatif.LinkFailure, A: origin.String(), B: stranger.String()},        // not adjacent
		{Kind: whatif.LinkFailure, A: origin.String(), B: "AS999999"},               // unknown AS
		{Kind: whatif.LinkFailure, A: origin.String()},                              // missing b
		{Kind: whatif.NewPeering, A: origin.String(), B: mux.String(), Rel: "peer"}, // already adjacent
		{Kind: whatif.NewPeering, A: pa.String(), B: pb.String(), Rel: "mentor"},    // bad rel
		{Kind: whatif.Poison}, // empty set
		{Kind: whatif.Poison, Poisoned: []string{origin.String()}}, // origin in set
		{Kind: whatif.Poison, Poisoned: []string{"AS999999"}},      // unknown AS
		{Kind: whatif.Prepend},              // zero count
		{Kind: whatif.Prepend, Prepend: 99}, // out of range
		{Kind: whatif.LocalPref, At: origin.String(), From: stranger.String(), Pref: 100}, // not adjacent
		{Kind: whatif.LocalPref, At: mux.String(), From: origin.String(), Pref: -1},       // bad pref
	}
	for i, d := range bad {
		if _, err := whatif.Compile(d, topo, origin); err == nil {
			t.Errorf("bad delta %d (%+v) compiled", i, d)
		}
	}

	good := []whatif.Delta{
		{Kind: whatif.LinkFailure, A: mux.String(), B: origin.String()},
		{Kind: whatif.NewPeering, A: pa.String(), B: pb.String(), Rel: "provider"},
		{Kind: whatif.Poison, Poisoned: []string{mux.String()}},
		{Kind: whatif.Prepend, Prepend: 3},
		{Kind: whatif.LocalPref, At: mux.String(), From: origin.String(), Pref: 50},
		{Kind: whatif.Withdraw},
	}
	if _, err := whatif.CompileAll(good, topo, origin); err != nil {
		t.Fatalf("good batch rejected: %v", err)
	}
}

func TestCanonicalization(t *testing.T) {
	topo, _, tb := world(t, 1)
	origin := tb.Origin
	mux0, mux1 := tb.Muxes[0], tb.Muxes[1]
	pa, pb := peeringPair(t, topo, nil)

	canon := func(d whatif.Delta) string {
		t.Helper()
		cd, err := whatif.Compile(d, topo, origin)
		if err != nil {
			t.Fatalf("compile %+v: %v", d, err)
		}
		return cd.Canonical()
	}

	// Link endpoints canonicalize order-insensitively.
	ab := canon(whatif.Delta{Kind: whatif.LinkFailure, A: origin.String(), B: mux0.String()})
	ba := canon(whatif.Delta{Kind: whatif.LinkFailure, A: mux0.String(), B: origin.String()})
	if ab != ba {
		t.Errorf("fail canonical differs by order: %q vs %q", ab, ba)
	}

	// A new peering proposed from either end with mirrored roles is one
	// delta.
	p1 := canon(whatif.Delta{Kind: whatif.NewPeering, A: pa.String(), B: pb.String(), Rel: "provider"})
	p2 := canon(whatif.Delta{Kind: whatif.NewPeering, A: pb.String(), B: pa.String(), Rel: "customer"})
	if p1 != p2 {
		t.Errorf("peer canonical differs by orientation: %q vs %q", p1, p2)
	}

	// Poison sets sort and dedup.
	s1 := canon(whatif.Delta{Kind: whatif.Poison, Poisoned: []string{mux1.String(), mux0.String(), mux1.String()}})
	s2 := canon(whatif.Delta{Kind: whatif.Poison, Poisoned: []string{mux0.String(), mux1.String()}})
	if s1 != s2 {
		t.Errorf("poison canonical differs: %q vs %q", s1, s2)
	}
	if strings.Count(s1, "AS") != 2 {
		t.Errorf("poison canonical %q should carry exactly two ASes", s1)
	}

	// local_pref is directional: (at, from) and (from, at) are different
	// deltas.
	l1 := canon(whatif.Delta{Kind: whatif.LocalPref, At: mux0.String(), From: origin.String(), Pref: 50})
	l2 := canon(whatif.Delta{Kind: whatif.LocalPref, At: origin.String(), From: mux0.String(), Pref: 50})
	if l1 == l2 {
		t.Errorf("local_pref canonical must be directional, both %q", l1)
	}

	if got := canon(whatif.Delta{Kind: whatif.Withdraw}); got != "withdraw()" {
		t.Errorf("withdraw canonical = %q", got)
	}
	if got := canon(whatif.Delta{Kind: whatif.Prepend, Prepend: 3}); got != "prepend(3)" {
		t.Errorf("prepend canonical = %q", got)
	}
}

func TestEvalSemantics(t *testing.T) {
	topo, _, tb := world(t, 1)
	p := tb.Prefixes[0]
	base := tb.AnycastBase(p)
	origin, mux := tb.Origin, tb.Muxes[0]
	live := liveMux(t, tb, base)

	// Withdraw: every AS that had a route (except the origin itself)
	// loses it; nothing is gained or moved.
	cd, err := whatif.Compile(whatif.Delta{Kind: whatif.Withdraw}, topo, origin)
	if err != nil {
		t.Fatal(err)
	}
	d, err := whatif.Eval(base, cd)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Converged {
		t.Fatal("withdraw did not reconverge")
	}
	if d.Gained != 0 || d.Moved != 0 || d.Lost == 0 || d.Affected != d.Lost {
		t.Fatalf("withdraw diff shape: %+v", d)
	}
	sawOrigin := false
	for _, ch := range d.Changes {
		if ch.AS == origin.String() {
			sawOrigin = true
		}
	}
	if !sawOrigin {
		t.Fatal("withdraw diff must include the origin losing its own origin route")
	}

	// Failing a live mux uplink never grows the routed set, and the
	// routes that crossed it must be lost or moved elsewhere.
	cd, err = whatif.Compile(whatif.Delta{Kind: whatif.LinkFailure, A: origin.String(), B: live.String()}, topo, origin)
	if err != nil {
		t.Fatal(err)
	}
	d, err = whatif.Eval(base, cd)
	if err != nil {
		t.Fatal(err)
	}
	if d.Gained != 0 {
		t.Fatalf("a link failure cannot gain routes: %+v", d)
	}
	if d.Lost+d.Moved == 0 || d.Events == 0 {
		t.Fatalf("failing the live uplink %s-%s changed nothing: %+v", origin, live, d)
	}

	// Poisoning a mux forces a fresh announcement through the whole
	// world: the poisoned AS must at least drop out (every candidate
	// path now carries its own ASN), and the reconvergence must register
	// measurable churn.
	cd, err = whatif.Compile(whatif.Delta{Kind: whatif.Poison, Poisoned: []string{mux.String()}}, topo, origin)
	if err != nil {
		t.Fatal(err)
	}
	d, err = whatif.Eval(base, cd)
	if err != nil {
		t.Fatal(err)
	}
	if d.Affected == 0 {
		t.Fatalf("poisoning %s affected nobody: %+v", mux, d)
	}
	if d.Events == 0 || d.Churn == 0 {
		t.Fatalf("reconvergence churn not measured: %+v", d)
	}

	// The frozen base is untouched by any number of evaluations.
	if _, ok := base.Best(mux); !ok {
		t.Fatal("base lost state after Eval")
	}
}
