package bgp

import (
	"reflect"
	"slices"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/obs"
	"routelab/internal/race"
	"routelab/internal/topology"
)

func ribFixture(t *testing.T) (*topology.Topology, *RIB) {
	t.Helper()
	topo := topology.Generate(99, topology.TestConfig())
	e := New(topo, 99, obs.Default())
	cdn := topo.Names["cdn-major"]
	rib := e.ComputeRIB(obs.Default(), topo.AS(cdn).Prefixes, Readers{DataPlane: topo.AS(cdn).Prefixes}, 2)
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

// TestRIBForwardMatchesLookup pins the data plane's read against the
// one that materialises the route: for every AS and an address under
// every covered prefix (and one under none), Forward answers with
// Lookup's next hop and egress city, both zero at an origin.
func TestRIBForwardMatchesLookup(t *testing.T) {
	topo, rib := ribFixture(t)
	addrs := []asn.Addr{asn.AddrFrom4(9, 9, 9, 9)}
	for _, p := range rib.Prefixes() {
		addrs = append(addrs, p.Nth(7))
	}
	for _, a := range topo.ASNs() {
		for _, ip := range addrs {
			rt, wantOK := rib.Lookup(a, ip)
			next, egress, ok := rib.Forward(a, ip)
			if ok != wantOK || next != rt.NextHop || egress != rt.EgressCity {
				t.Fatalf("Forward(%s, %v) = %s, %d (%v); Lookup says %v (%v)", a, ip, next, egress, ok, rt, wantOK)
			}
		}
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
	single := New(topo, 99, obs.Default()).ComputePrefix(p)
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
	e := New(topo, 101, obs.Default())
	prefixes := topo.OriginatedPrefixes()[:6]
	rib := e.ComputeRIB(obs.Default(), prefixes, Readers{DataPlane: prefixes}, 3) // parallel workers
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
	e := New(topo, 101, obs.Default())
	if m := e.ComputePrefix(asn.NewPrefix(asn.AddrFrom4(9, 0, 0, 0), 24)); m != nil {
		t.Fatal("unknown prefix produced routes")
	}
}

// mustPanicRead runs a RIB read that its readers do not cover and fails
// unless it panics.
func mustPanicRead(t *testing.T, what string, read func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s answered instead of panicking", what)
		}
	}()
	read()
}

// TestScopedRIBMatchesFullRIB is the reader-scoped RIB's differential
// oracle: what a RIB with few readers retains is, record for record and
// path for path, what the keep-everything RIB of the same world holds,
// and every read outside it panics rather than answer "no route" — also
// the longest-prefix match that lands on a thin /24 while the /18 that
// covers it is held whole.
func TestScopedRIBMatchesFullRIB(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		topo := topology.Generate(seed, topology.TestConfig())
		e := New(topo, seed, obs.Default())
		full := e.ComputeFullRIB(obs.Default(), 0)

		// Readers the way a scenario has them: a few dozen transit ASes as
		// collectors, and as data plane every fifth AS's covering prefix —
		// but none of its more specifics.
		var readers Readers
		readers.Collectors = append(readers.Collectors, topo.ASesOfClass(topology.Tier1)...)
		readers.Collectors = append(readers.Collectors, topo.ASesOfClass(topology.LargeISP)...)
		var thin24, over18 asn.Prefix
		for k, a := range topo.ASNs() {
			ps := topo.AS(a).Prefixes
			if k%5 != 0 || len(ps) == 0 {
				continue
			}
			readers.DataPlane = append(readers.DataPlane, ps[0])
			for _, p := range ps[1:] {
				if thin24.IsZero() && ps[0].ContainsPrefix(p) {
					thin24, over18 = p, ps[0]
				}
			}
		}
		if thin24.IsZero() {
			t.Fatalf("seed %d: no announced /24 inside a data-plane /18", seed)
		}
		scoped := e.ComputeRIB(obs.Default(), topo.OriginatedPrefixes(), readers, 0)
		if !reflect.DeepEqual(scoped.Prefixes(), full.Prefixes()) {
			t.Fatalf("seed %d: the scoped RIB covers other prefixes than the full one", seed)
		}

		var outside asn.ASN // some AS that is no collector
		retained, dropped := 0, 0
		for _, p := range full.Prefixes() {
			for _, a := range topo.ASNs() {
				if !full.Retains(a, p) {
					t.Fatalf("seed %d: the keep-everything RIB does not retain %s/%v", seed, a, p)
				}
				if !scoped.Retains(a, p) {
					dropped++
					outside = a
					mustPanicRead(t, "Route outside the readers", func() { scoped.Route(a, p) })
					mustPanicRead(t, "ASPath outside the readers", func() { scoped.ASPath(a, p) })
					continue
				}
				retained++
				fr, fok := full.Route(a, p)
				sr, sok := scoped.Route(a, p)
				if fok != sok || !reflect.DeepEqual(fr, sr) {
					t.Fatalf("seed %d: Route(%s, %v): scoped %v (%v), full %v (%v)", seed, a, p, sr, sok, fr, fok)
				}
				if fp, sp := full.ASPath(a, p), scoped.ASPath(a, p); !reflect.DeepEqual(fp, sp) {
					t.Fatalf("seed %d: ASPath(%s, %v): scoped %v, full %v", seed, a, p, sp, fp)
				}
			}
		}
		if retained == 0 || dropped == 0 {
			t.Fatalf("seed %d: %d pairs retained, %d dropped: the readers scope nothing", seed, retained, dropped)
		}
		if !scoped.Retains(outside, over18) || scoped.Retains(outside, thin24) {
			t.Fatalf("seed %d: fixture: %s should be held for %v and not for %v", seed, outside, over18, thin24)
		}

		// An address under the /18 and outside the /24 is answered from
		// the whole column, exactly as the full RIB answers it; one under
		// the thin /24 must not fall through to the /18, whether or not
		// the AS converged on a route for the /24.
		in18 := over18.Nth(1 << 10)
		if thin24.Contains(in18) {
			t.Fatalf("seed %d: fixture: %v is inside %v", seed, in18, thin24)
		}
		fr, fok := full.Lookup(outside, in18)
		sr, sok := scoped.Lookup(outside, in18)
		if fok != sok || !reflect.DeepEqual(fr, sr) {
			t.Fatalf("seed %d: Lookup(%s, %v): scoped %v (%v), full %v (%v)", seed, outside, in18, sr, sok, fr, fok)
		}
		mustPanicRead(t, "Lookup under a thin /24", func() { scoped.Lookup(outside, thin24.Nth(7)) })
		mustPanicRead(t, "Forward under a thin /24", func() { scoped.Forward(outside, thin24.Nth(7)) })
		// A collector is held for every prefix: its lookups all answer.
		for _, c := range readers.Collectors[:3] {
			fr, fok := full.Lookup(c, thin24.Nth(7))
			sr, sok := scoped.Lookup(c, thin24.Nth(7))
			if fok != sok || !reflect.DeepEqual(fr, sr) {
				t.Fatalf("seed %d: collector %s: Lookup under the thin /24: scoped %v (%v), full %v (%v)", seed, c, sr, sok, fr, fok)
			}
		}
		t.Logf("seed %d: %d of %d (AS, prefix) pairs retained", seed, retained, retained+dropped)
	}
}

// TestConcurrentRIBUnsettledMatchesSerial is the differential for the
// RIB's outcome: at any worker count, Unsettled lists, in input order,
// exactly the prefixes whose default announcement a fresh computation
// cannot settle before the event cap. The scale-0.2 seed-12 world is the
// smallest known to diverge, so the list must be non-empty there; on the
// test world nothing diverges. Under -race the serial oracle would
// double the cost, so the one-worker RIB stands in for it there and the
// two-worker RIB is held to it.
func TestConcurrentRIBUnsettledMatchesSerial(t *testing.T) {
	diverging := topology.DefaultConfig()
	diverging.Scale = 0.2
	for _, w := range []struct {
		seed     int64
		cfg      topology.Config
		diverges bool
	}{{12, diverging, true}, {1, topology.TestConfig(), false}} {
		topo := topology.Generate(w.seed, w.cfg)
		e := New(topo, w.seed, obs.Default())
		prefixes := topo.OriginatedPrefixes()
		var want []asn.Prefix
		workers := []int{1, 2}
		if race.Enabled {
			want, workers = e.ComputeRIB(obs.Default(), prefixes, Readers{}, 1).Unsettled(), workers[1:]
		} else {
			for _, p := range prefixes {
				c := e.NewComputation(p)
				c.Announce(Announcement{Origin: topo.OriginOf(p)})
				if !c.Converge().Settled {
					want = append(want, p)
				}
			}
		}
		if (len(want) > 0) != w.diverges {
			t.Fatalf("seed %d: %d of %d prefixes unsettled, want diverging=%v", w.seed, len(want), len(prefixes), w.diverges)
		}
		t.Logf("seed %d: %d of %d prefixes unsettled", w.seed, len(want), len(prefixes))
		for _, n := range workers {
			if got := e.ComputeRIB(obs.Default(), prefixes, Readers{}, n).Unsettled(); !slices.Equal(got, want) {
				t.Errorf("seed %d, %d workers: Unsettled() = %v, want %v", w.seed, n, got, want)
			}
		}
	}
}
