package scenario

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/classify"
	"routelab/internal/peering"
	"routelab/internal/vantage"
)

// The reference for RunMagnetCampaign's observer walk: the campaign as
// it was computed over maps, an observation's seed-free half as one
// magnetView, a hop's observation found by binary search and an
// observer's next hops as a set per AS. The dense walk must make the
// same decisions, in the same order, from the same observers.

// magnetView is the reference's seed-free half of one magnet
// observation.
type magnetView struct {
	sticky, kept bool
	// alts indexes the observation's Alternatives: the first route per
	// next hop other than the chosen route's, in ascending next-hop
	// order.
	alts []int32
}

// referenceViews is the reference's seed-free half of the campaign:
// one slice per run, aligned to its Observations.
func referenceViews(runs []peering.MagnetResult) [][]magnetView {
	nhCounts := map[asn.ASN]map[asn.ASN]int{}
	runsSeen := map[asn.ASN]int{}
	for ri := range runs {
		for k := range runs[ri].Observations {
			o := &runs[ri].Observations[k]
			m := nhCounts[o.AS]
			if m == nil {
				m = map[asn.ASN]int{}
				nhCounts[o.AS] = m
			}
			m[o.After.NextHop]++
			runsSeen[o.AS]++
		}
	}
	sticky := map[asn.ASN]bool{}
	for a, m := range nhCounts {
		best := 0
		for _, n := range m {
			if n > best {
				best = n
			}
		}
		sticky[a] = best*3 >= runsSeen[a]*2
	}
	out := make([][]magnetView, len(runs))
	for ri := range runs {
		res := &runs[ri]
		out[ri] = make([]magnetView, len(res.Observations))
		for k := range res.Observations {
			o := &res.Observations[k]
			var alts []int32
			seenNH := map[asn.ASN]bool{o.After.NextHop: true}
			for a, alt := range o.Alternatives {
				if !seenNH[alt.NextHop] {
					seenNH[alt.NextHop] = true
					alts = append(alts, int32(a))
				}
			}
			sort.Slice(alts, func(i, j int) bool {
				return o.Alternatives[alts[i]].NextHop < o.Alternatives[alts[j]].NextHop
			})
			out[ri][k] = magnetView{
				sticky: sticky[o.AS],
				kept:   !o.Moved && muxOf(o.After) == res.Magnet,
				alts:   alts,
			}
		}
	}
	return out
}

// referenceObserve is the reference's decisions of one channel.
func referenceObserve(runs []peering.MagnetResult, views [][]magnetView, observers []asn.ASN) []classify.MagnetDecision {
	hops := map[asn.ASN]map[asn.ASN]bool{}
	visible := map[asn.ASN]bool{}
	record := func(a asn.ASN, r bgp.Route) {
		if r.NextHop.IsZero() {
			return
		}
		m := hops[a]
		if m == nil {
			m = map[asn.ASN]bool{}
			hops[a] = m
		}
		m[r.NextHop] = true
	}
	for ri := range runs {
		observed := runs[ri].Observations
		for _, start := range observers {
			cur := start
			for hop := 0; hop < maxWalk; hop++ {
				k := sort.Search(len(observed), func(k int) bool { return observed[k].AS >= cur })
				if k == len(observed) || observed[k].AS != cur {
					break
				}
				o := &observed[k]
				visible[cur] = true
				record(cur, o.Before)
				record(cur, o.After)
				nh := o.After.NextHop
				if nh.IsZero() {
					break
				}
				cur = nh
			}
		}
	}
	var out []classify.MagnetDecision
	for ri := range runs {
		for k := range runs[ri].Observations {
			o := &runs[ri].Observations[k]
			if !visible[o.AS] {
				continue
			}
			v := &views[ri][k]
			var others []bgp.Route
			for _, a := range v.alts {
				if alt := o.Alternatives[a]; hops[o.AS][alt.NextHop] {
					others = append(others, alt)
				}
			}
			out = append(out, classify.MagnetDecision{
				AS:         o.AS,
				Chosen:     o.After,
				KeptMagnet: v.kept,
				Sticky:     v.sticky,
				Others:     others,
			})
		}
	}
	return out
}

// magnetCampaignMatchesReference holds RunMagnetCampaign on s to the
// reference at seeds 0 to seeds-1: the same feed and trace decisions.
func magnetCampaignMatchesReference(t *testing.T, s *Scenario, seeds int64) {
	t.Helper()
	views := referenceViews(s.Magnet)
	for seed := range seeds {
		mc := s.RunMagnetCampaign(rand.New(rand.NewSource(seed)))
		rng := rand.New(rand.NewSource(seed))
		feedPeers := vantage.SelectPeers(s.Topo, rng, s.Cfg.NumVantagePeers)
		probes := s.activeProbeSet(rng)
		for _, ch := range []struct {
			name      string
			got       []classify.MagnetDecision
			observers []asn.ASN
		}{
			{"feed", mc.FeedDecisions, feedPeers},
			{"trace", mc.TraceDecisions, probes},
		} {
			want := referenceObserve(s.Magnet, views, ch.observers)
			if len(want) == 0 {
				t.Fatalf("seed %d: the %s channel sees nothing", seed, ch.name)
			}
			if !reflect.DeepEqual(ch.got, want) {
				t.Errorf("seed %d: %d %s decisions, the reference %d, and they differ", seed, len(ch.got), ch.name, len(want))
			}
		}
	}
}

// TestMagnetCampaignMatchesReference: on the TestConfig world, the
// dense walk's decisions equal the reference's at seeds 0–31.
func TestMagnetCampaignMatchesReference(t *testing.T) {
	magnetCampaignMatchesReference(t, getScenario(t), 32)
}

// TestMagnetWalkCapOnChains holds the dense walk to the reference on
// hand-built runs whose next-hop chains are longer than the walk's cap
// and cycle: a chain AS1 → AS2 → … → AS40 and a ring AS100 → … → AS104
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
	ix := indexMagnets(runs)
	views := referenceViews(runs)
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
		// A later walk reaching walked ASes with more budget left goes
		// on past the first one's end ...
		{[]asn.ASN{1, 10}, []asn.ASN{1, 33, 40}, nil},
		// ... and one with less stops where the first began.
		{[]asn.ASN{10, 1}, []asn.ASN{1, 40}, nil},
		// Round the ring until the cap, and into it from outside.
		{[]asn.ASN{100}, []asn.ASN{100, 104}, []asn.ASN{50}},
		{[]asn.ASN{50, 102, 7}, []asn.ASN{50, 100, 104, 7, 38}, []asn.ASN{6, 39}},
		// An AS no run observed starts nothing.
		{[]asn.ASN{77}, nil, []asn.ASN{77}},
	} {
		got := ix.observe(runs, tc.observers)
		if want := referenceObserve(runs, views, tc.observers); !reflect.DeepEqual(got, want) {
			t.Errorf("observers %v: %d decisions, the reference %d, and they differ", tc.observers, len(got), len(want))
		}
		vis := visible(got)
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
