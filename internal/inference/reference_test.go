package inference_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/inference"
	"routelab/internal/obs"
	"routelab/internal/relgraph"
	"routelab/internal/scenario"
	"routelab/internal/topology"
	"routelab/internal/vantage"
)

// referenceInferSnapshot is InferSnapshot as it stood before the
// evidence/label split: maps keyed by ASN and link, a set per link, every
// step recomputed per call. Slow and obviously right; the oracle below
// holds the flat implementation to it edge for edge.
func referenceInferSnapshot(s *vantage.Snapshot, cfg inference.Config) *relgraph.Graph {
	if cfg.MaxCliqueSize == 0 {
		cfg = inference.DefaultConfig()
	}
	raw := make([][]asn.ASN, 0, len(s.Entries))
	for i := range s.Entries {
		raw = append(raw, s.Entries[i].Path)
	}
	paths := cleanPaths(raw)

	deg := transitDegrees(paths)
	adj := adjacency(paths)
	clique := findClique(deg, adj, cfg.MaxCliqueSize)

	// Direction votes: locate each path's peak (highest transit degree)
	// and vote provider-ward on both slopes.
	type pair = topology.LinkKey
	downVotes := make(map[pair]int) // vote that Lo is Hi's provider
	upVotes := make(map[pair]int)   // vote that Hi is Lo's provider
	vote := func(provider, customer asn.ASN) {
		k := topology.MakeLinkKey(provider, customer)
		if k.Lo == provider {
			downVotes[k]++
		} else {
			upVotes[k]++
		}
	}
	for _, p := range paths {
		peak := 0
		for i := 1; i < len(p); i++ {
			if deg[p[i]] > deg[p[peak]] {
				peak = i
			}
		}
		for i := 0; i+1 < len(p); i++ {
			if i+1 <= peak {
				vote(p[i+1], p[i]) // uphill toward the peak
			} else {
				vote(p[i], p[i+1]) // downhill toward the origin
			}
		}
	}

	// Visibility: how many distinct vantage points see each link.
	seenBy := make(map[pair]map[asn.ASN]bool)
	totalVPs := make(map[asn.ASN]bool)
	// upExport[{A,B}] records the ASes X observed immediately above A
	// on paths "... X A B ...": A exported B-side routes to X. If some
	// X is at least as big as A, the export went to a peer or provider,
	// which only customer routes may do — so B is A's customer even if
	// few monitors see the edge (the research-network case).
	type dirEdge struct{ transit, other asn.ASN }
	upExport := make(map[dirEdge]map[asn.ASN]bool)
	for i := range s.Entries {
		e := &s.Entries[i]
		totalVPs[e.Peer] = true
		for j := 0; j+1 < len(e.Path); j++ {
			k := topology.MakeLinkKey(e.Path[j], e.Path[j+1])
			m := seenBy[k]
			if m == nil {
				m = make(map[asn.ASN]bool)
				seenBy[k] = m
			}
			m[e.Peer] = true
			if j > 0 {
				de := dirEdge{transit: e.Path[j], other: e.Path[j+1]}
				um := upExport[de]
				if um == nil {
					um = make(map[asn.ASN]bool)
					upExport[de] = um
				}
				um[e.Path[j-1]] = true
			}
		}
	}
	nVPs := len(totalVPs)
	exportedUpward := func(transit, other asn.ASN) bool {
		for x := range upExport[dirEdge{transit, other}] {
			if x == other {
				continue
			}
			if cfg.SameOrg != nil && cfg.SameOrg(x, transit) {
				continue // intra-organization export proves nothing
			}
			// Export to a clique member or to a network at least as
			// large is a peer/provider export, legal only for customer
			// routes.
			if clique[x] || deg[x] >= deg[transit] {
				return true
			}
		}
		return false
	}

	g := relgraph.New()
	for k := range adj {
		loInClique, hiInClique := clique[k.Lo], clique[k.Hi]
		visibility := 0.0
		if nVPs > 0 {
			visibility = float64(len(seenBy[k])) / float64(nVPs)
		}
		switch {
		case loInClique && hiInClique:
			g.Set(k.Lo, k.Hi, topology.RelPeer)
		case visibility < cfg.VisibilityThreshold:
			// Few monitors see the edge — usually settlement-free
			// peering, unless the export pattern proves transit.
			switch {
			case exportedUpward(k.Lo, k.Hi):
				g.Set(k.Lo, k.Hi, topology.RelCustomer) // Hi is Lo's customer
			case exportedUpward(k.Hi, k.Lo):
				g.Set(k.Lo, k.Hi, topology.RelProvider)
			default:
				g.Set(k.Lo, k.Hi, topology.RelPeer)
			}
		case downVotes[k] >= upVotes[k]:
			// Lo is Hi's provider → Hi's role from Lo is customer.
			g.Set(k.Lo, k.Hi, topology.RelCustomer)
		default:
			g.Set(k.Lo, k.Hi, topology.RelProvider)
		}
	}
	return g
}

// cleanPaths drops loops (poisoned or corrupted paths) and collapses
// prepending.
func cleanPaths(in [][]asn.ASN) [][]asn.ASN {
	var out [][]asn.ASN
	for _, p := range in {
		q := make([]asn.ASN, 0, len(p))
		seen := make(map[asn.ASN]bool, len(p))
		ok := true
		for _, a := range p {
			if len(q) > 0 && q[len(q)-1] == a {
				continue // prepending
			}
			if seen[a] {
				ok = false
				break
			}
			seen[a] = true
			q = append(q, a)
		}
		if ok && len(q) >= 1 {
			out = append(out, q)
		}
	}
	return out
}

// transitDegrees counts, per AS, the distinct neighbors it is seen
// forwarding between (appearing mid-path).
func transitDegrees(paths [][]asn.ASN) map[asn.ASN]int {
	sets := make(map[asn.ASN]map[asn.ASN]bool)
	for _, p := range paths {
		for i := 1; i+1 < len(p); i++ {
			m := sets[p[i]]
			if m == nil {
				m = make(map[asn.ASN]bool)
				sets[p[i]] = m
			}
			m[p[i-1]] = true
			m[p[i+1]] = true
		}
	}
	deg := make(map[asn.ASN]int, len(sets))
	for a, m := range sets {
		deg[a] = len(m)
	}
	return deg
}

// adjacency collects every observed link.
func adjacency(paths [][]asn.ASN) map[topology.LinkKey]bool {
	adj := make(map[topology.LinkKey]bool)
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			adj[topology.MakeLinkKey(p[i], p[i+1])] = true
		}
	}
	return adj
}

// findClique greedily grows the Tier-1 clique from the highest transit
// degrees, requiring mutual adjacency.
func findClique(deg map[asn.ASN]int, adj map[topology.LinkKey]bool, maxSize int) map[asn.ASN]bool {
	type cand struct {
		a asn.ASN
		d int
	}
	cands := make([]cand, 0, len(deg))
	for a, d := range deg {
		cands = append(cands, cand{a, d})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d > cands[j].d
		}
		return cands[i].a < cands[j].a
	})
	clique := make(map[asn.ASN]bool)
	if len(cands) == 0 {
		return clique
	}
	minDeg := cands[0].d / 4 // members must be at least a quarter of the top
	for _, c := range cands {
		if len(clique) >= maxSize || c.d < minDeg {
			break
		}
		connected := true
		for m := range clique {
			if !adj[topology.MakeLinkKey(c.a, m)] {
				connected = false
				break
			}
		}
		if connected {
			clique[c.a] = true
		}
	}
	return clique
}

// TestLabelMatchesReference is the differential oracle for the
// evidence/label split: on every snapshot of a generated scenario and
// every threshold the ablation sweeps, labelling the once-gathered
// evidence yields the reference's edges exactly, and aggregating the
// build's evidence labelled at 0.3 reproduces the graph it inferred.
// A built scenario keeps no snapshot, so the test collects the build's
// five from keep-everything RIBs of the same world, drawing the peers as
// Build does: epoch by epoch, historic epochs on the restored topology,
// as the first use of the seed's rng.
func TestLabelMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scenario")
	}
	s, err := scenario.Build(scenario.TestConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hist := s.Topo.Restored()
	ribs := []*bgp.RIB{
		bgp.New(hist, s.Cfg.Seed, obs.Default()).ComputeFullRIB(obs.Default(), 0),
		bgp.New(s.Topo, s.Cfg.Seed, obs.Default()).ComputeFullRIB(obs.Default(), 0),
	}
	rng := rand.New(rand.NewSource(s.Cfg.Seed))
	cfg := inference.DefaultConfig()
	cfg.SameOrg = s.Siblings.SameOrg
	for epoch := range s.Cfg.HistoricEpochs + s.Cfg.CurrentEpochs {
		topo, rib := hist, ribs[0]
		if epoch >= s.Cfg.HistoricEpochs {
			topo, rib = s.Topo, ribs[1]
		}
		snap := vantage.Collect(rib, vantage.SelectPeers(topo, rng, s.Cfg.NumVantagePeers), epoch)
		ev := inference.Gather(snap, cfg)
		if !reflect.DeepEqual(ev, s.Evidence[epoch]) {
			t.Fatalf("snapshot %d is not the one the build collected: its evidence differs", epoch)
		}
		for _, th := range []float64{0.1, 0.2, 0.3, 0.5} {
			cfg.VisibilityThreshold = th
			want := referenceInferSnapshot(snap, cfg).Edges()
			got := ev.Label(th)
			if len(want) == 0 {
				t.Fatalf("snapshot %d: reference inferred no edges", epoch)
			}
			if !reflect.DeepEqual(got.Edges(), want) {
				t.Errorf("snapshot %d threshold %.1f: labelled evidence differs from the reference (%d vs %d edges)",
					epoch, th, got.NumEdges(), len(want))
			}
		}
	}
	var atDefault []*relgraph.Graph
	for _, ev := range s.Evidence {
		atDefault = append(atDefault, ev.Label(inference.DefaultConfig().VisibilityThreshold))
	}
	agg := inference.Aggregate(atDefault)
	if got, want := agg.Edges(), s.Inferred.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("aggregate of the labelled evidence differs from Scenario.Inferred (%d vs %d edges)", len(got), len(want))
	}
	// Same inputs, same layout: AS indices must not follow a map's
	// iteration order anywhere between the snapshot and the aggregate.
	if !reflect.DeepEqual(agg, s.Inferred) {
		t.Error("two aggregates of the same labellings are laid out differently")
	}
}
