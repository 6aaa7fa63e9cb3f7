package scenario

import (
	"math/rand"
	"sort"
	"sync"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/classify"
	"routelab/internal/parallel"
	"routelab/internal/peering"
	"routelab/internal/vantage"
)

// MagnetCampaign is the assembled §3.2 magnet experiment: the decisions
// of the build's magnet runs (Scenario.Magnet, one per mux), prepared
// for Table 2 classification under both observation channels.
type MagnetCampaign struct {
	// FeedDecisions observe ASes visible on monitor-feed paths toward
	// the PEERING prefix; TraceDecisions those on active traceroute
	// paths from the RIPE/PlanetLab probe set.
	FeedDecisions, TraceDecisions []classify.MagnetDecision
}

// runMagnets executes the magnet experiment once per mux, each over its
// own bgp.Computation, fanned out across the worker pool. It observes
// every AS (a cheap superset of what either channel could see): the
// per-channel visibility is filtered by RunMagnetCampaign using actual
// paths, so the runs themselves depend on no observer and no rng.
func (s *Scenario) runMagnets() []peering.MagnetResult {
	prefix := s.Testbed.Prefixes[0]
	observe := s.Topo.ASNs()
	return parallel.MapStage(s.rec, "scenario/magnet", s.Testbed.Muxes, s.Cfg.RoutingWorkers,
		func(mi int, _ asn.ASN) peering.MagnetResult {
			return s.Testbed.Magnet(prefix, mi, observe)
		})
}

// maxWalk caps an observer's walk along next hops, in ASes.
const maxWalk = 32

// magnetView is the seed-free half of one magnet observation: what
// RunMagnetCampaign reads of it whatever its observers.
type magnetView struct {
	// sticky reports whether the AS settled on one dominant next hop
	// after the anycasts, across the campaign's runs.
	sticky bool
	// kept reports whether the AS kept its route toward the magnet.
	kept bool
	// alts indexes the observation's Alternatives: the first route per
	// next hop other than the chosen route's, in ascending next-hop
	// order.
	alts []int32
}

// magnetViews computes the seed-free half of RunMagnetCampaign over the
// build's magnet runs: one slice per run, aligned to its Observations.
func magnetViews(runs []peering.MagnetResult) [][]magnetView {
	// Stickiness: does the AS settle on one dominant next hop after the
	// anycast, regardless of magnet placement? A static preference
	// (IGP) produces the same winner in a clear majority of runs;
	// history-driven (age) selection follows the magnet around.
	// Majority (not unanimity) keeps the signal robust to the
	// occasional alternate BGP equilibrium.
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
			best = max(best, n)
		}
		sticky[a] = best*3 >= runsSeen[a]*2 // dominant ≥ 2/3 of runs
	}

	out := make([][]magnetView, len(runs))
	for ri := range runs {
		res := &runs[ri]
		out[ri] = make([]magnetView, len(res.Observations))
		for k := range res.Observations {
			o := &res.Observations[k]
			// One route per next hop (same-next-hop differences are the
			// downstream AS's decision, which the paper attributes
			// downstream).
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
				// "Keeping the route toward the magnet" (§3.2) means the
				// post-anycast route still exits through the MAGNET mux
				// via the same neighbor — not merely an unchanged next
				// hop (the path may now lead to a closer anycast site,
				// which is the downstream's doing).
				kept: !o.Moved && muxOf(o.After) == res.Magnet,
				alts: alts,
			}
		}
	}
	return out
}

// RunMagnetCampaign observes the build's magnet runs (s.Magnet) and
// builds the decision sets. Only the observers — the feed peers and the
// active probes — are drawn from rng, so only what they see is computed
// here: the rest of each observation (stickiness, whether it kept the
// magnet, its alternatives one per next hop) was computed by Build. The
// "other routes observed from x" pool only contains routes genuinely
// visible through the respective channel across the whole campaign,
// mirroring the paper's observer.
func (s *Scenario) RunMagnetCampaign(rng *rand.Rand) MagnetCampaign {
	feedPeers := vantage.SelectPeers(s.Topo, rng, s.Cfg.NumVantagePeers)
	activeProbes := s.activeProbeSet(rng)
	return MagnetCampaign{
		FeedDecisions:  observe(s.Magnet, s.magnetViews, feedPeers),
		TraceDecisions: observe(s.Magnet, s.magnetViews, activeProbes),
	}
}

// observe is one observation channel of the campaign over runs, whose
// seed-free halves are views: the decisions of every AS visible from
// observers, run by run in observation order.
//
// The channel learns, per AS, the set of NEXT HOPS the AS was ever seen
// using (across all runs and both phases) — that is everything an
// outside observer can establish about x's alternatives. The comparison
// set for a run is then the routes those neighbors were ACTUALLY
// offering x in that run's post-anycast state (the paper verified
// exactly this availability assumption before reporting).
func observe(runs []peering.MagnetResult, views [][]magnetView, observers []asn.ASN) []classify.MagnetDecision {
	type hop struct{ as, next asn.ASN }
	used := map[hop]bool{}
	visible := map[asn.ASN]bool{}
	record := func(a asn.ASN, r *bgp.Route) {
		if !r.NextHop.IsZero() {
			used[hop{a, r.NextHop}] = true
		}
	}
	// Visibility comes from each run's post-anycast state: an observer
	// sees the ASes on its path, followed next hop by next hop.
	for ri := range runs {
		observed := runs[ri].Observations
		for _, cur := range observers {
			for range maxWalk {
				k := sort.Search(len(observed), func(k int) bool { return observed[k].AS >= cur })
				if k == len(observed) || observed[k].AS != cur {
					break
				}
				o := &observed[k]
				visible[cur] = true
				record(cur, &o.Before)
				record(cur, &o.After)
				if o.After.NextHop.IsZero() {
					break
				}
				cur = o.After.NextHop
			}
		}
	}

	// One decision per (run, visible AS); the run's genuine candidate
	// set is its alternatives restricted to next hops the observer
	// established.
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
				if alt := o.Alternatives[a]; used[hop{o.AS, alt.NextHop}] {
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

// muxOf extracts the mux a PEERING route exits through (the AS right
// before the origin, AS_SETs skipped), or 0 for direct/odd paths. It
// reads the hop in place rather than concatenating the sequence.
func muxOf(r bgp.Route) asn.ASN {
	segs := r.Path.Segments
	after := 0 // sequence ASes right of the current segment
	for k := len(segs) - 1; k >= 0; k-- {
		if segs[k].Type != asn.Sequence {
			continue
		}
		as := segs[k].ASNs
		if after+len(as) >= 2 {
			return as[len(as)-2+after]
		}
		after += len(as)
	}
	return 0
}

// activeProbeSet picks the RIPE+PlanetLab AS set for active experiments:
// a greedy selection maximizing distinct ASes (the paper's heuristic),
// approximated by sampling distinct probe ASes.
func (s *Scenario) activeProbeSet(rng *rand.Rand) []asn.ASN {
	want := s.Cfg.ActiveProbes + s.Cfg.PlanetLabNodes
	seen := map[asn.ASN]bool{}
	var out []asn.ASN
	probes := s.Platform.Probes()
	for _, i := range rng.Perm(len(probes)) {
		if len(out) >= want {
			break
		}
		a := probes[i].AS
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RunAlternatesCampaign discovers alternate routes for every AS observed
// on paths toward the PEERING prefixes (§3.2/§4.4), up to the configured
// cap. Only the targets are drawn from rng; their results come from
// Alternates, so a target another campaign on this scenario already
// discovered is not walked again. The result slice follows the sorted
// target order, and the results are the same for any worker count and
// whatever was asked before.
func (s *Scenario) RunAlternatesCampaign(rng *rand.Rand) []peering.AlternateResult {
	targets := s.observedTargets(rng, s.Testbed.Prefixes[0])
	if limit := s.Cfg.MaxAlternateTargets; limit > 0 && len(targets) > limit {
		targets = targets[:limit]
	}
	return s.Alternates(targets)
}

// alternatesMemo is every discovery result a Scenario has computed,
// by target, over its first testbed prefix.
type alternatesMemo struct {
	// mu is held across a discovery walk, so a target is walked once
	// however many callers ask for it at once.
	mu   sync.Mutex
	done map[asn.ASN]peering.AlternateResult
}

// Alternates returns each target's §3.2 discovery result over the first
// testbed prefix, in the order given. A result depends on its target
// alone (DESIGN §12), so each target is discovered once per Scenario:
// the targets not asked for before are discovered together in one
// Testbed.DiscoverAlternates walk, its scenario/alternates stage on
// Record, whose subtrees fan out over the worker pool; results are kept.
// The engine's fork and convergence counts so depend on which targets
// were already discovered, and are the same for any worker count. Safe
// for concurrent use. The returned results share their steps with the
// memo: read-only.
func (s *Scenario) Alternates(targets []asn.ASN) []peering.AlternateResult {
	m := s.alternates
	m.mu.Lock()
	defer m.mu.Unlock()
	var missing []asn.ASN
	for _, t := range targets {
		if _, ok := m.done[t]; !ok {
			missing = append(missing, t)
		}
	}
	if len(missing) > 0 {
		stop := s.rec.StartStage("scenario/alternates")
		found := s.Testbed.DiscoverAlternates(s.Testbed.Prefixes[0], missing, s.Cfg.RoutingWorkers)
		stop()
		if m.done == nil {
			m.done = make(map[asn.ASN]peering.AlternateResult, len(found))
		}
		for _, r := range found {
			m.done[r.Target] = r
		}
	}
	out := make([]peering.AlternateResult, len(targets))
	for i, t := range targets {
		out[i] = m.done[t]
	}
	return out
}

// observedTargets lists ASes seen on paths toward a PEERING prefix from
// the monitors and the active probes (excluding the testbed itself). It
// reads the shared anycast base — the same converged state the discovery
// runs fork from.
func (s *Scenario) observedTargets(rng *rand.Rand, prefix asn.Prefix) []asn.ASN {
	c := s.Testbed.AnycastBase(prefix)
	seen := map[asn.ASN]bool{}
	walk := func(start asn.ASN) {
		cur := start
		for range maxWalk {
			if cur == s.Testbed.Origin {
				return
			}
			rt, ok := c.Best(cur)
			if !ok {
				return
			}
			seen[cur] = true
			if rt.NextHop.IsZero() {
				return
			}
			cur = rt.NextHop
		}
	}
	for _, p := range vantage.SelectPeers(s.Topo, rng, s.Cfg.NumVantagePeers) {
		walk(p)
	}
	for _, p := range s.activeProbeSet(rng) {
		walk(p)
	}
	out := make([]asn.ASN, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
