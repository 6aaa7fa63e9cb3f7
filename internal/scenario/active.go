package scenario

import (
	"math/rand"
	"sort"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/classify"
	"routelab/internal/parallel"
	"routelab/internal/peering"
	"routelab/internal/vantage"
)

// MagnetCampaign is the assembled §3.2 magnet experiment: one run per
// mux, with decisions prepared for Table 2 classification under both
// observation channels.
type MagnetCampaign struct {
	Runs []peering.MagnetResult
	// FeedDecisions observe ASes visible on monitor-feed paths toward
	// the PEERING prefix; TraceDecisions those on active traceroute
	// paths from the RIPE/PlanetLab probe set.
	FeedDecisions, TraceDecisions []classify.MagnetDecision
}

// RunMagnetCampaign executes a magnet run per mux and builds the
// decision sets. The "other routes observed from x" pool only contains
// routes genuinely visible through the respective channel across the
// whole campaign, mirroring the paper's observer.
func (s *Scenario) RunMagnetCampaign(rng *rand.Rand) MagnetCampaign {
	prefix := s.Testbed.Prefixes[0]
	feedPeers := vantage.SelectPeers(s.Topo, rng, s.Cfg.NumVantagePeers)
	activeProbes := s.activeProbeSet(rng)

	var campaign MagnetCampaign
	// Every AS either channel could possibly observe (cheap superset:
	// transit ASes plus muxes' neighborhoods); the per-channel
	// visibility is filtered after the runs using actual paths.
	observe := s.Topo.ASNs()

	// Each channel learns, per AS, the set of NEXT HOPS the AS was ever
	// seen using (across all runs and both phases) — that is everything
	// an outside observer can establish about x's alternatives. The
	// comparison set for a run is then the routes those neighbors were
	// ACTUALLY offering x in that run's post-anycast state (the paper
	// verified exactly this availability assumption before reporting).
	feedHops := map[asn.ASN]map[asn.ASN]bool{}
	traceHops := map[asn.ASN]map[asn.ASN]bool{}
	feedVisible := map[asn.ASN]bool{}
	traceVisible := map[asn.ASN]bool{}

	record := func(hops map[asn.ASN]map[asn.ASN]bool, a asn.ASN, r bgp.Route) {
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

	// One magnet run per mux, each over its own bgp.Computation — fan
	// out, then do the order-sensitive visibility marking serially over
	// the merged runs (in mux order, same as the serial path).
	campaign.Runs = parallel.MapStage("scenario/magnet", s.Testbed.Muxes, s.Cfg.RoutingWorkers,
		func(mi int, _ asn.ASN) peering.MagnetResult {
			return s.Testbed.Magnet(prefix, mi, observe)
		})
	for ri := range campaign.Runs {
		res := campaign.Runs[ri]
		// Determine per-channel visibility from the post-anycast state:
		// feed channel sees ASes on feed-peer paths; trace channel sees
		// ASes on data-plane paths from the active probes.
		byAS := map[asn.ASN]*peering.MagnetObservation{}
		for i := range res.Observations {
			byAS[res.Observations[i].AS] = &res.Observations[i]
		}
		markPath := func(visible map[asn.ASN]bool, hops map[asn.ASN]map[asn.ASN]bool, start asn.ASN) {
			cur := start
			for hop := 0; hop < 32; hop++ {
				o := byAS[cur]
				if o == nil {
					return
				}
				visible[cur] = true
				record(hops, cur, o.Before)
				record(hops, cur, o.After)
				nh := o.After.NextHop
				if nh.IsZero() {
					return
				}
				cur = nh
			}
		}
		for _, p := range feedPeers {
			markPath(feedVisible, feedHops, p)
		}
		for _, pr := range activeProbes {
			markPath(traceVisible, traceHops, pr)
		}
	}

	// Stickiness: does the AS settle on one dominant next hop after the
	// anycasts, regardless of magnet placement? A static preference
	// (IGP) produces the same winner in a clear majority of runs;
	// history-driven (age) selection follows the magnet around.
	// Majority (not unanimity) keeps the signal robust to the
	// occasional alternate BGP equilibrium.
	nhCounts := map[asn.ASN]map[asn.ASN]int{}
	runsSeen := map[asn.ASN]int{}
	for _, res := range campaign.Runs {
		for _, o := range res.Observations {
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
		sticky[a] = best*3 >= runsSeen[a]*2 // dominant ≥ 2/3 of runs
	}

	// Assemble decisions: one per (run, visible AS with alternatives).
	build := func(visible map[asn.ASN]bool, hops map[asn.ASN]map[asn.ASN]bool) []classify.MagnetDecision {
		var out []classify.MagnetDecision
		for _, res := range campaign.Runs {
			for _, o := range res.Observations {
				if !visible[o.AS] {
					continue
				}
				// The run's genuine candidate set, restricted to next
				// hops the observer established, one route per next hop
				// (same-next-hop differences are the downstream AS's
				// decision, which the paper attributes downstream).
				var others []bgp.Route
				seenNH := map[asn.ASN]bool{o.After.NextHop: true}
				for _, alt := range o.Alternatives {
					if seenNH[alt.NextHop] || !hops[o.AS][alt.NextHop] {
						continue
					}
					seenNH[alt.NextHop] = true
					others = append(others, alt)
				}
				sort.Slice(others, func(i, j int) bool {
					return others[i].NextHop < others[j].NextHop
				})
				// "Keeping the route toward the magnet" (§3.2) means the
				// post-anycast route still exits through the MAGNET mux
				// via the same neighbor — not merely an unchanged next
				// hop (the path may now lead to a closer anycast site,
				// which is the downstream's doing).
				keptMagnet := !o.Moved && muxOf(o.After) == res.Magnet
				out = append(out, classify.MagnetDecision{
					AS:         o.AS,
					Chosen:     o.After,
					KeptMagnet: keptMagnet,
					Sticky:     sticky[o.AS],
					Others:     others,
				})
			}
		}
		return out
	}
	campaign.FeedDecisions = build(feedVisible, feedHops)
	campaign.TraceDecisions = build(traceVisible, traceHops)
	return campaign
}

// muxOf extracts the mux a PEERING route exits through (the AS right
// before the origin), or 0 for direct/odd paths.
func muxOf(r bgp.Route) asn.ASN {
	seq := r.Path.Sequence()
	if len(seq) < 2 {
		return 0
	}
	return seq[len(seq)-2]
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
// cap. The converged anycast base is built once (AnycastBase) and every
// target's poisoning loop runs over its own copy-on-write fork of it, so
// targets fan out across the worker pool without re-paying the base
// convergence; the result slice follows the sorted target order
// regardless of worker count.
func (s *Scenario) RunAlternatesCampaign(rng *rand.Rand) []peering.AlternateResult {
	prefix := s.Testbed.Prefixes[0]
	targets := s.observedTargets(rng, prefix)
	if limit := s.Cfg.MaxAlternateTargets; limit > 0 && len(targets) > limit {
		targets = targets[:limit]
	}
	return parallel.MapStage("scenario/alternates", targets, s.Cfg.RoutingWorkers,
		func(_ int, t asn.ASN) peering.AlternateResult {
			return s.Testbed.DiscoverAlternates(prefix, t)
		})
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
		for hops := 0; hops < 32; hops++ {
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
