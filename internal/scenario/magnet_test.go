package scenario

import (
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/classify"
	"routelab/internal/peering"
)

// TestMagnetWalkCapOnChains follows observers over hand-built runs
// whose next-hop chains are longer than the walk's cap (maxWalk) and
// cycle: a chain AS1 → AS2 → … → AS40 and a ring AS100 → … → AS104
// → AS100 fed by AS50. Each AS chooses its chain successor and is
// offered the AS after it, which it used before the anycast in the
// first run only.
func TestMagnetWalkCapOnChains(t *testing.T) {
	route := func(nh asn.ASN, lp int) bgp.Route { return bgp.Route{NextHop: nh, LocalPref: lp} }
	next := func(a asn.ASN) asn.ASN {
		switch {
		case a == 50:
			return 100
		case a >= 100:
			return 100 + (a-100+1)%5
		}
		return a + 1
	}
	var ases []asn.ASN
	for a := asn.ASN(1); a <= 40; a++ {
		ases = append(ases, a)
	}
	ases = append(ases, 50, 100, 101, 102, 103, 104)
	runs := make([]peering.MagnetResult, 2)
	for ri := range runs {
		runs[ri].Magnet = asn.ASN(900 + ri)
		for _, a := range ases {
			before := route(next(a), 100)
			if ri == 0 {
				before = route(next(next(a)), 90)
			}
			runs[ri].Observations = append(runs[ri].Observations, peering.MagnetObservation{
				AS:           a,
				Before:       before,
				After:        route(next(a), 100),
				Moved:        before.NextHop != next(a),
				Alternatives: []bgp.Route{route(next(a), 100), route(next(next(a)), 90), route(next(next(a)), 80)},
			})
		}
	}
	views := magnetViews(runs)
	visible := func(ds []classify.MagnetDecision) map[asn.ASN]bool {
		out := map[asn.ASN]bool{}
		for _, d := range ds {
			out[d.AS] = true
		}
		return out
	}
	for _, tc := range []struct {
		observers []asn.ASN
		seen, not []asn.ASN
	}{
		// One walk stops after 32 ASes.
		{[]asn.ASN{1}, []asn.ASN{1, 32}, []asn.ASN{33}},
		// Each observer walks its own 32, so a second walk through
		// walked ASes goes on past the first one's end ...
		{[]asn.ASN{1, 10}, []asn.ASN{1, 33, 40}, nil},
		// ... whichever of them starts first.
		{[]asn.ASN{10, 1}, []asn.ASN{1, 40}, nil},
		// Round the ring until the cap, and into it from outside.
		{[]asn.ASN{100}, []asn.ASN{100, 104}, []asn.ASN{50}},
		{[]asn.ASN{50, 102, 7}, []asn.ASN{50, 100, 104, 7, 38}, []asn.ASN{6, 39}},
		// An AS no run observed starts nothing.
		{[]asn.ASN{77}, nil, []asn.ASN{77}},
	} {
		vis := visible(observe(runs, views, tc.observers))
		for _, a := range tc.seen {
			if !vis[a] {
				t.Errorf("observers %v: %s not visible", tc.observers, a)
			}
		}
		for _, a := range tc.not {
			if vis[a] {
				t.Errorf("observers %v: %s visible past the cap", tc.observers, a)
			}
		}
	}
}
