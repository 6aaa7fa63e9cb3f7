package bgp

import (
	"testing"

	"routelab/internal/asn"
	"routelab/internal/topology"
)

// convergedDiamond builds the diamond's anycast base: org announces,
// the world converges, and the computation is returned frozen, for
// tests to Fork and mutate.
func convergedDiamond(t *testing.T) (*Engine, *Base, map[string]asn.ASN) {
	t.Helper()
	e, p, ids := diamond(t)
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: ids["org"]})
	if !c.Converge() {
		t.Fatal("base did not converge")
	}
	return e, c.Freeze(), ids
}

func TestFailLinkReroutes(t *testing.T) {
	_, base, ids := convergedDiamond(t)
	f := base.Fork()

	// t1 currently hears org via one of its customers; failing that link
	// must move t1 onto the other customer.
	before := mustRoute(t, f, ids["t1"])
	other := ids["c1"]
	if before.NextHop == ids["c1"] {
		other = ids["c2"]
	}
	if err := f.FailLink(ids["t1"], before.NextHop); err != nil {
		t.Fatal(err)
	}
	if !f.Converge() {
		t.Fatal("did not reconverge")
	}
	after := mustRoute(t, f, ids["t1"])
	if after.NextHop != other {
		t.Fatalf("t1 next hop after failure = %s, want %s", after.NextHop, other)
	}
	// The diff against the base must mention t1 and must not invent
	// changes at ASes still holding their shared route.
	diff := f.BestDiff(base)
	saw := false
	for _, bc := range diff {
		if bc.AS == ids["t1"] {
			saw = true
			if bc.Before == nil || bc.After == nil {
				t.Fatalf("t1 change should be a move, got %+v", bc)
			}
		}
		if bc.AS == ids["org"] {
			t.Fatal("org's origin route must not change on a t1 link failure")
		}
	}
	if !saw {
		t.Fatalf("diff %v does not mention t1", diff)
	}
}

func TestFailLinkPartitions(t *testing.T) {
	_, base, ids := convergedDiamond(t)
	f := base.Fork()
	// org's only uplinks are c1 and c2; failing both cuts everyone off.
	if err := f.FailLink(ids["org"], ids["c1"]); err != nil {
		t.Fatal(err)
	}
	if err := f.FailLink(ids["org"], ids["c2"]); err != nil {
		t.Fatal(err)
	}
	if !f.Converge() {
		t.Fatal("did not reconverge")
	}
	if _, ok := f.Best(ids["org"]); !ok {
		t.Fatal("org must keep its origin route")
	}
	for _, name := range []string{"t1", "t2", "c1", "c2", "c3"} {
		if r, ok := f.Best(ids[name]); ok {
			t.Fatalf("%s still routes after the partition: %v", name, r)
		}
	}
	// Everyone but org lost their route: 5 pure-loss entries.
	diff := f.BestDiff(base)
	if len(diff) != 5 {
		t.Fatalf("diff has %d entries, want 5: %v", len(diff), diff)
	}
	for _, bc := range diff {
		if bc.Before == nil || bc.After != nil {
			t.Fatalf("expected pure loss at %s, got %+v", bc.AS, bc)
		}
	}
}

func TestFailLinkValidation(t *testing.T) {
	_, base, ids := convergedDiamond(t)
	f := base.Fork()
	if err := f.FailLink(ids["org"], ids["t2"]); err == nil {
		t.Fatal("failing a non-existent link must error")
	}
	if err := f.FailLink(ids["org"], 9999); err == nil {
		t.Fatal("failing a link to an unknown AS must error")
	}
	if err := f.FailLink(ids["org"], ids["c1"]); err != nil {
		t.Fatal(err)
	}
	// Idempotent: a second failure of the same link is a no-op.
	if err := f.FailLink(ids["c1"], ids["org"]); err != nil {
		t.Fatalf("re-failing the same link: %v", err)
	}
}

func TestAddPeeringRoutes(t *testing.T) {
	e, base, ids := convergedDiamond(t)
	f := base.Fork()
	// org currently reaches t2 only via c1/c2 -> t1 -> t2. A direct
	// org -> t2 customer link gives t2 a 1-hop customer route, which wins
	// on LocalPref.
	l, err := e.Topology().ProposeLink(ids["t2"], ids["org"], topology.RelCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddPeering(l); err != nil {
		t.Fatal(err)
	}
	if !f.Converge() {
		t.Fatal("did not reconverge")
	}
	r := mustRoute(t, f, ids["t2"])
	if r.NextHop != ids["org"] || r.FromRel != topology.RelCustomer {
		t.Fatalf("t2 route after new peering: %v", r)
	}
	if r.Path.Len() != 1 {
		t.Fatalf("t2 path length = %d, want 1", r.Path.Len())
	}
	// The added adjacency can be failed again, restoring the old route.
	if err := f.FailLink(ids["t2"], ids["org"]); err != nil {
		t.Fatal(err)
	}
	if !f.Converge() {
		t.Fatal("did not reconverge after failing the added peering")
	}
	r = mustRoute(t, f, ids["t2"])
	if r.NextHop != ids["t1"] {
		t.Fatalf("t2 next hop after failing the added peering = %s, want %s", r.NextHop, ids["t1"])
	}
}

func TestAddPeeringValidation(t *testing.T) {
	e, base, ids := convergedDiamond(t)
	f := base.Fork()
	if _, err := e.Topology().ProposeLink(ids["org"], ids["c1"], topology.RelProvider); err == nil {
		t.Fatal("proposing an existing link must error")
	}
	if _, err := e.Topology().ProposeLink(ids["org"], ids["org"], topology.RelPeer); err == nil {
		t.Fatal("proposing a self link must error")
	}
	if _, err := e.Topology().ProposeLink(ids["org"], 9999, topology.RelPeer); err == nil {
		t.Fatal("proposing a link to an unknown AS must error")
	}
	l, err := e.Topology().ProposeLink(ids["org"], ids["t2"], topology.RelProvider)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddPeering(l); err != nil {
		t.Fatal(err)
	}
	if err := f.AddPeering(l); err == nil {
		t.Fatal("adding the same peering twice must error")
	}
}

func TestProposeLinkOrientationCanonical(t *testing.T) {
	e, _, ids := convergedDiamond(t)
	a, b := ids["org"], ids["t2"]
	l1, err := e.Topology().ProposeLink(a, b, topology.RelProvider)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := e.Topology().ProposeLink(b, a, topology.RelProvider.Invert())
	if err != nil {
		t.Fatal(err)
	}
	if l1.Lo != l2.Lo || l1.Hi != l2.Hi || l1.HiRole != l2.HiRole || len(l1.Cities) != len(l2.Cities) {
		t.Fatalf("orientation not canonical: %+v vs %+v", l1, l2)
	}
}

func TestSetLocalPrefMovesBest(t *testing.T) {
	_, base, ids := convergedDiamond(t)
	f := base.Fork()
	before := mustRoute(t, f, ids["t1"])
	other := ids["c1"]
	if before.NextHop == ids["c1"] {
		other = ids["c2"]
	}
	// Demote the current next hop below every policy value; t1 must move
	// to the other customer.
	if err := f.SetLocalPref(ids["t1"], before.NextHop, 1); err != nil {
		t.Fatal(err)
	}
	if !f.Converge() {
		t.Fatal("did not reconverge")
	}
	after := mustRoute(t, f, ids["t1"])
	if after.NextHop != other {
		t.Fatalf("t1 next hop after demotion = %s, want %s", after.NextHop, other)
	}
	if err := f.SetLocalPref(ids["org"], ids["t2"], 500); err == nil {
		t.Fatal("overriding a non-adjacent pair must error")
	}
}

func TestAnnouncePrepend(t *testing.T) {
	e, p, ids := diamond(t)
	c := e.NewComputation(p)
	c.Announce(Announcement{Origin: ids["org"], Prepend: 3})
	if !c.Converge() {
		t.Fatal("did not converge")
	}
	// t1's path is normally [cX org]; three prepends stretch it to 5.
	r := mustRoute(t, c, ids["t1"])
	if r.Path.Len() != 5 {
		t.Fatalf("t1 path length with prepend 3 = %d, want 5", r.Path.Len())
	}
}

func TestDeltaMutatorsPanicWhenFrozen(t *testing.T) {
	e, base, ids := convergedDiamond(t)
	c := base.Fork()
	c.Freeze()
	mustPanicDelta := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a frozen computation did not panic", name)
			}
		}()
		fn()
	}
	l, err := e.Topology().ProposeLink(ids["org"], ids["t2"], topology.RelPeer)
	if err != nil {
		t.Fatal(err)
	}
	mustPanicDelta("FailLink", func() { _ = c.FailLink(ids["org"], ids["c1"]) })
	mustPanicDelta("AddPeering", func() { _ = c.AddPeering(l) })
	mustPanicDelta("SetLocalPref", func() { _ = c.SetLocalPref(ids["t1"], ids["c1"], 1) })
}

func TestForkClonesOverlay(t *testing.T) {
	_, base, ids := convergedDiamond(t)
	f1 := base.Fork()
	if err := f1.FailLink(ids["org"], ids["c1"]); err != nil {
		t.Fatal(err)
	}
	if !f1.Converge() {
		t.Fatal("f1 did not reconverge")
	}
	// A second-generation fork must inherit the failure (identical state,
	// empty diff) and stay independently mutable.
	b1 := f1.Freeze()
	f2 := b1.Fork()
	if diff := f2.BestDiff(b1); len(diff) != 0 {
		t.Fatalf("fresh fork differs from parent: %v", diff)
	}
	if err := f2.FailLink(ids["org"], ids["c2"]); err != nil {
		t.Fatal(err)
	}
	if !f2.Converge() {
		t.Fatal("f2 did not reconverge")
	}
	if _, ok := f2.Best(ids["t1"]); ok {
		t.Fatal("t1 should be cut off in f2")
	}
	// The parent fork is untouched by the child's extra failure.
	if _, ok := b1.Best(ids["t1"]); !ok {
		t.Fatal("t1 must still route in f1")
	}
}
