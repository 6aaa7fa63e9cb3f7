// Package peering drives the active control-plane experiments of §3.2
// over the PEERING-testbed analogue the topology generator embeds: an
// origin AS multihomed to seven university muxes. It implements the two
// experiment engines of the paper:
//
//   - Alternate-route discovery: announce anycast, observe a target
//     AS's chosen next hop, poison it, reconverge, repeat — yielding
//     the target's full preference order over its neighbors.
//   - Magnet/anycast: announce from a single mux (the magnet), let
//     routes settle and AGE, then anycast from all muxes and observe
//     which ASes move — exposing route-age and intradomain
//     tie-breakers.
package peering

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/parallel"
)

// Testbed wraps the PEERING origin AS and its muxes.
type Testbed struct {
	engine   *bgp.Engine
	Origin   asn.ASN
	Muxes    []asn.ASN
	Prefixes []asn.Prefix

	// mu guards bases, the per-prefix memo of converged plain-anycast
	// computations (see AnycastBase).
	mu    sync.Mutex
	bases map[asn.Prefix]*bgp.Base
}

// NewTestbed locates the testbed inside a generated topology via its
// name handles.
func NewTestbed(engine *bgp.Engine) (*Testbed, error) {
	topo := engine.Topology()
	origin, ok := topo.Names["peering"]
	if !ok {
		return nil, fmt.Errorf("peering: topology has no %q handle (not generated by topology.Generate?)", "peering")
	}
	tb := &Testbed{engine: engine, Origin: origin, Prefixes: topo.AS(origin).Prefixes}
	for i := 0; ; i++ {
		mux, ok := topo.Names[fmt.Sprintf("mux-%d", i)]
		if !ok {
			break
		}
		tb.Muxes = append(tb.Muxes, mux)
	}
	if len(tb.Muxes) == 0 {
		return nil, fmt.Errorf("peering: no muxes registered")
	}
	return tb, nil
}

// AlternateStep is one discovered route in a target's preference order.
type AlternateStep struct {
	// Route is the target's best route at this step.
	Route bgp.Route
	// PoisonedSoFar is the AS_SET content that was active when the
	// route was observed (empty for the first, most-preferred route).
	PoisonedSoFar []asn.ASN
}

// AlternateResult is the outcome of one discovery run.
type AlternateResult struct {
	Target asn.ASN
	Prefix asn.Prefix
	// Steps are the routes in decreasing preference.
	Steps []AlternateStep
	// Announcements is the number of distinct announcements issued
	// (including the initial anycast).
	Announcements int
	// Exhausted reports whether the run ended with the target routeless
	// (true) or aborted on a safety bound (false).
	Exhausted bool
}

// maxAlternateRounds bounds discovery; no AS has that many neighbors
// willing to carry a poisoned announcement.
const maxAlternateRounds = 32

// AnycastBase returns the converged computation of the plain anycast
// announcement (the origin announcing a prefix to all muxes) — the
// state every discovery run starts from — as a frozen bgp.Base, its
// routes rendered for the what-if diffs taken against it
// (FreezeForDiffs). It is built once per prefix and memoized. Safe for
// concurrent use; concurrent callers may Fork the same base from
// different goroutines, which is how DiscoverAlternates fans its
// subtrees across the worker pool without re-converging the anycast
// per subtree.
func (tb *Testbed) AnycastBase(prefix asn.Prefix) *bgp.Base {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if b := tb.bases[prefix]; b != nil {
		return b
	}
	c := tb.engine.NewComputation(prefix)
	c.Announce(bgp.Announcement{Origin: tb.Origin})
	c.Converge()
	b := c.FreezeForDiffs()
	if tb.bases == nil {
		tb.bases = make(map[asn.Prefix]*bgp.Base)
	}
	tb.bases[prefix] = b
	return b
}

// DiscoverAlternates runs the §3.2 discovery loop for every target at
// once and returns one result per target, in the order given. The
// converged state after poisoning [n1 … nk] depends on that sequence
// alone, not on whose next hops they were, so targets that poison the
// same sequence share one convergence: the discovery walks the tree of
// poison sequences depth first from the prefix's AnycastBase. At each
// node it records every target of the node's group exactly as a
// one-target loop would, then groups the targets that go on by the next
// hop they poison (sorted by ASN) and descends once per group with that
// hop appended:
//
//   - a node with one child goes on in the same computation;
//   - a node with two or more is frozen, and each child forks it;
//   - a leaf is released, its storage back to the engine for the next fork.
//
// A walk so holds at most one frozen node per level, and levels stop at
// maxAlternateRounds. The root's subtrees fan out over workers; each
// target's result is written by the one subtree that holds it, so the
// results, and the engine's fork and convergence counts, do not depend
// on the worker count. With one target the tree is a chain: one fork of
// the base and one convergence per poisoning round.
func (tb *Testbed) DiscoverAlternates(prefix asn.Prefix, targets []asn.ASN, workers int) []AlternateResult {
	out := make([]AlternateResult, len(targets))
	group := make([]int, len(targets))
	for i, t := range targets {
		out[i] = AlternateResult{Target: t, Prefix: prefix, Announcements: 1}
		group[i] = i
	}
	base := tb.AnycastBase(prefix)
	kids := tb.observe(base.Best, nil, group, out)
	parallel.ForEach(len(kids), workers, func(k int) {
		tb.descend(base.Fork(), kids[k], out)
	})
	return out
}

// poisonNode is one node of the poison-sequence tree: the sequence
// poisoned to reach it and the targets (indexes into the results) whose
// discovery passes through it.
type poisonNode struct {
	poisoned []asn.ASN
	group    []int
}

// descend announces n's poison sequence on c, which holds the converged
// state of n's parent, and walks n's subtree. It owns c.
func (tb *Testbed) descend(c *bgp.Computation, n poisonNode, out []AlternateResult) {
	for {
		c.Announce(bgp.Announcement{Origin: tb.Origin, Poisoned: n.poisoned})
		c.Converge()
		kids := tb.observe(c.Best, n.poisoned, n.group, out)
		switch len(kids) {
		case 0:
			c.Release()
			return
		case 1:
			n = kids[0]
			continue
		}
		base := c.Freeze()
		for _, k := range kids {
			tb.descend(base.Fork(), k, out)
		}
		return
	}
}

// observe records one discovery step for every target of group under
// the state best reads, reached by poisoning poisoned, and returns the
// children: the targets that go on, grouped by the next hop they poison
// next, in ascending order of that hop. A target whose next poison
// would be round maxAlternateRounds counts the announcement and stops.
func (tb *Testbed) observe(best func(asn.ASN) (bgp.Route, bool), poisoned []asn.ASN, group []int, out []AlternateResult) []poisonNode {
	type next struct {
		hop asn.ASN
		i   int
	}
	var cont []next
	for _, i := range group {
		res := &out[i]
		rt, ok := best(res.Target)
		if !ok {
			res.Exhausted = true
			continue
		}
		res.Steps = append(res.Steps, AlternateStep{
			Route:         rt,
			PoisonedSoFar: append([]asn.ASN(nil), poisoned...),
		})
		hop := rt.NextHop
		if hop.IsZero() || hop == tb.Origin {
			// The target reached us directly (or originates) — nothing
			// upstream left to poison.
			res.Exhausted = true
			continue
		}
		res.Announcements++
		if len(poisoned)+1 < maxAlternateRounds {
			cont = append(cont, next{hop, i})
		}
	}
	slices.SortStableFunc(cont, func(a, b next) int { return cmp.Compare(a.hop, b.hop) })
	var kids []poisonNode
	for k, x := range cont {
		if k == 0 || x.hop != cont[k-1].hop {
			kids = append(kids, poisonNode{poisoned: append(poisoned[:len(poisoned):len(poisoned)], x.hop)})
		}
		last := &kids[len(kids)-1]
		last.group = append(last.group, x.i)
	}
	return kids
}

// MagnetObservation captures one AS's behavior across a magnet run.
type MagnetObservation struct {
	AS asn.ASN
	// Before is the route held while only the magnet announced.
	Before bgp.Route
	// After is the route held after the anycast.
	After bgp.Route
	// Moved reports whether the AS changed next hop after anycast.
	Moved bool
	// Alternatives are all candidate routes the AS held after anycast
	// (most preferred first) — the "other routes we observed from x".
	Alternatives []bgp.Route
	// TrueStep is the ground-truth decision step (oracle; the paper
	// must infer this, our Table 2 classifier does the same inference
	// and the oracle lets tests score it).
	TrueStep bgp.DecisionStep
}

// MagnetResult is one complete magnet experiment.
type MagnetResult struct {
	Prefix asn.Prefix
	Magnet asn.ASN // the mux that announced first
	// Observations ascend by AS.
	Observations []MagnetObservation
}

// Magnet runs the §3.2 magnet experiment: announce via the magnet mux
// only, converge (routes age), then anycast via every mux and observe
// the ASes in `observe`. Observation is restricted to ASes that held a
// route in both phases.
func (tb *Testbed) Magnet(prefix asn.Prefix, magnetIdx int, observe []asn.ASN) MagnetResult {
	magnet := tb.Muxes[magnetIdx%len(tb.Muxes)]
	res := MagnetResult{Prefix: prefix, Magnet: magnet}
	c := tb.engine.NewComputation(prefix)
	c.Announce(bgp.Announcement{Origin: tb.Origin, Via: []asn.ASN{magnet}})
	c.Converge()
	before := make(map[asn.ASN]bgp.Route)
	for _, a := range observe {
		if rt, ok := c.Best(a); ok {
			before[a] = rt
		}
	}
	c.Announce(bgp.Announcement{Origin: tb.Origin}) // anycast via all muxes
	c.Converge()
	sorted := append([]asn.ASN(nil), observe...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, a := range sorted {
		b, okB := before[a]
		rt, okA := c.Best(a)
		if !okB || !okA {
			continue
		}
		step, _ := c.Step(a)
		res.Observations = append(res.Observations, MagnetObservation{
			AS:           a,
			Before:       b,
			After:        rt,
			Moved:        rt.NextHop != b.NextHop,
			Alternatives: c.Alternatives(a),
			TrueStep:     step,
		})
	}
	return res
}
