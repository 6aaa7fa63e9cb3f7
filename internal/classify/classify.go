// Package classify is the paper's analysis core (§3.3–§6): it judges
// every measured routing decision against the Gao–Rexford model computed
// over the inferred topology, applies the successive refinements of
// Figure 1 (complex relationships, siblings, prefix-specific policies),
// attributes violations to geography and undersea cables, and
// reverse-engineers the BGP decision steps behind the active-experiment
// observations (Table 2, §4.4).
package classify

import (
	"sync"

	"routelab/internal/asn"
	"routelab/internal/complexrel"
	"routelab/internal/gaorexford"
	"routelab/internal/geo"
	"routelab/internal/registry"
	"routelab/internal/relgraph"
	"routelab/internal/siblings"
	"routelab/internal/topology"
)

// Category is a Figure 1 quadrant: did the decision use the best
// available relationship class (Best), and is the measured path as short
// as the model's shortest (Short)?
type Category uint8

const (
	// BestShort decisions follow the model fully.
	BestShort Category = iota
	// NonBestShort decisions pick a more expensive neighbor but a
	// shortest-length path.
	NonBestShort
	// BestLong decisions pick the cheapest class but a longer path.
	BestLong
	// NonBestLong decisions are explained by neither property.
	NonBestLong
)

// Categories lists the quadrants in the paper's legend order.
var Categories = []Category{BestShort, NonBestShort, BestLong, NonBestLong}

// String names the category as Figure 1 does.
func (c Category) String() string {
	switch c {
	case BestShort:
		return "Best/Short"
	case NonBestShort:
		return "NonBest/Short"
	case BestLong:
		return "Best/Long"
	default:
		return "NonBest/Long"
	}
}

// IsViolation reports whether the category deviates from the model (the
// paper's Figure 2 pools all three non-Best/Short categories).
func (c Category) IsViolation() bool { return c != BestShort }

// Refinement selects a Figure 1 column.
type Refinement uint8

const (
	// Simple is the plain Gao–Rexford comparison on the inferred graph.
	Simple Refinement = iota
	// Complex adds hybrid and partial-transit relationships (§4.1).
	Complex
	// Sibs marks decisions through inferred siblings as Best (§4.2).
	Sibs
	// PSP1 applies prefix-specific-policy Criteria 1 (§4.3): drop the
	// origin edge N–O for prefix P unless feeds show O announcing P to N.
	PSP1
	// PSP2 is Criteria 2: like PSP1, but an edge is only droppable when
	// feeds observed it carrying at least one prefix (visibility guard).
	PSP2
	// All1 combines Complex + Sibs + PSP1.
	All1
	// All2 combines Complex + Sibs + PSP2.
	All2
)

// Refinements lists the Figure 1 columns in order.
var Refinements = []Refinement{Simple, Complex, Sibs, PSP1, PSP2, All1, All2}

// String names the refinement as the Figure 1 x-axis does.
func (r Refinement) String() string {
	switch r {
	case Simple:
		return "Simple"
	case Complex:
		return "Complex"
	case Sibs:
		return "Sibs"
	case PSP1:
		return "PSP-1"
	case PSP2:
		return "PSP-2"
	case All1:
		return "All-1"
	default:
		return "All-2"
	}
}

func (r Refinement) usesComplex() bool { return r == Complex || r == All1 || r == All2 }
func (r Refinement) usesSibs() bool    { return r == Sibs || r == All1 || r == All2 }
func (r Refinement) pspCriteria() int {
	switch r {
	case PSP1, All1:
		return 1
	case PSP2, All2:
		return 2
	default:
		return 0
	}
}

// Decision is one measured routing decision: AS At forwarded traffic for
// Prefix (originated by DstAS) to neighbor Via, with RestLen ASes left
// on the measured path after At.
type Decision struct {
	At, Via asn.ASN
	Prefix  asn.Prefix
	DstAS   asn.ASN
	RestLen int
	// BoundaryCity is the geolocated interconnection city between At
	// and Via (0 when geolocation failed) — the key for hybrid
	// relationships.
	BoundaryCity geo.CityID
	// SrcAS is the AS originating the measurement (for Figure 2).
	SrcAS asn.ASN
	// TraceID links the decision back to its measurement.
	TraceID int
}

// Context bundles every dataset the classification consumes. All fields
// are measurement-plane artifacts; none reads routing ground truth.
//
// The exported datasets are read-only after assembly; the only mutable
// state is the internal model cache, the one place Gao–Rexford results
// are held, which is guarded by a mutex. Classify, Breakdown,
// PredictPath and the other judging methods are therefore safe for
// concurrent use — on a cache miss two goroutines
// may both compute the (deterministic, identical) model result and one
// copy wins, so parallel classification stays byte-identical to serial.
type Context struct {
	// Graph is the aggregated inferred relationship graph (the CAIDA
	// stand-in).
	Graph *relgraph.Graph
	// Siblings is the whois/SOA sibling grouping.
	Siblings *siblings.Groups
	// Complex is the hybrid/partial-transit dataset.
	Complex *complexrel.Dataset
	// OriginEvidence records, per prefix, the neighbors the origin was
	// seen announcing it to in BGP feeds (§4.3 evidence).
	OriginEvidence map[asn.Prefix]map[asn.ASN]bool
	// EdgeEverAtOrigin records origin-position edges seen for ANY
	// prefix; Criteria 2 only drops edges present here.
	EdgeEverAtOrigin map[topology.LinkKey]bool
	// Registry and World serve the whois-country checks of §6.
	Registry *registry.Registry
	World    *geo.World
	// CableASes is the TeleGeography-style undersea-cable AS list.
	CableASes map[asn.ASN]bool

	// cacheMu guards the model cache below. Model results are
	// deterministic functions of (Graph, key), so the lock is released
	// during computation: racing goroutines may duplicate work but
	// never disagree.
	cacheMu sync.Mutex
	models  map[modelKey]*gaorexford.Result
}

// modelKey names one model computation: toward dst, with prefix's
// origin edges masked under PSP criteria (prefix is zero when criteria
// is 0).
type modelKey struct {
	dst      asn.ASN
	prefix   asn.Prefix
	criteria int
}

// WithGraph returns a copy of the context judging against a different
// relationship graph (a fresh model cache). The ablation experiments use
// it to re-score the same decisions under alternative inferences.
func (cx *Context) WithGraph(g *relgraph.Graph) *Context {
	// Field-by-field copy: the receiver's mutex and cache must not be
	// carried over (and a struct copy would race with concurrent users).
	return &Context{
		Graph:            g,
		Siblings:         cx.Siblings,
		Complex:          cx.Complex,
		OriginEvidence:   cx.OriginEvidence,
		EdgeEverAtOrigin: cx.EdgeEverAtOrigin,
		Registry:         cx.Registry,
		World:            cx.World,
		CableASes:        cx.CableASes,
	}
}

// model returns the (cached) Gao–Rexford result toward dst, with the
// §4.3 origin-edge masking of prefix under PSP criteria applied (none
// when criteria is 0, and then every prefix of dst shares one entry).
// On a miss it computes outside the lock and installs the result; the
// first writer wins.
func (cx *Context) model(dst asn.ASN, prefix asn.Prefix, criteria int) *gaorexford.Result {
	if criteria == 0 {
		prefix = asn.Prefix{}
	}
	key := modelKey{dst, prefix, criteria}
	cx.cacheMu.Lock()
	r, ok := cx.models[key]
	cx.cacheMu.Unlock()
	if ok {
		return r
	}
	r = gaorexford.Compute(cx.Graph, dst, cx.MaskedEdges(dst, prefix, criteria)...)
	cx.cacheMu.Lock()
	defer cx.cacheMu.Unlock()
	if prev, ok := cx.models[key]; ok {
		return prev
	}
	if cx.models == nil {
		cx.models = make(map[modelKey]*gaorexford.Result)
	}
	cx.models[key] = r
	return r
}

// MaskedEdges returns the origin edges the PSP criteria drop for a
// prefix: every graph edge N–O (O the origin) that feeds never showed
// carrying the prefix — under Criteria 2 only when the edge was seen at
// origin position for some other prefix.
func (cx *Context) MaskedEdges(dst asn.ASN, prefix asn.Prefix, criteria int) []relgraph.Edge {
	if criteria == 0 {
		return nil
	}
	observed := cx.OriginEvidence[prefix]
	var masked []relgraph.Edge
	for _, n := range cx.Graph.Neighbors(dst) {
		if observed[n] {
			continue
		}
		if criteria == 2 && !cx.EdgeEverAtOrigin[topology.MakeLinkKey(dst, n)] {
			continue // poor visibility, not evidence of policy
		}
		masked = append(masked, relgraph.Edge{A: dst, B: n})
	}
	return masked
}

// chosenRel resolves the relationship the decision used under a
// refinement: the inferred base relationship, optionally overridden by
// the complex dataset at the geolocated interconnection city or by a
// published partial-transit arrangement for the prefix.
func (cx *Context) chosenRel(d Decision, ref Refinement) topology.Rel {
	rel := cx.Graph.Rel(d.At, d.Via)
	if !ref.usesComplex() {
		return rel
	}
	if d.BoundaryCity != 0 {
		if hr, ok := cx.Complex.HybridRole(d.At, d.Via, d.BoundaryCity); ok {
			rel = hr
		}
	}
	if cx.Complex.PartialTransit(d.At, d.Via, d.Prefix) {
		// Via provides At transit for this prefix: the decision is a
		// (legitimate) provider-class route.
		rel = topology.RelProvider
	}
	return rel
}

// Classify judges one decision under a refinement.
func (cx *Context) Classify(d Decision, ref Refinement) Category {
	res := cx.model(d.DstAS, d.Prefix, ref.pspCriteria())
	rel := cx.chosenRel(d, ref)
	bestRank := res.BestRank(d.At)
	best := rel != topology.RelNone && rel.Rank() <= bestRank
	if !best && ref.usesSibs() && cx.Siblings.SameOrg(d.At, d.Via) {
		// §4.2: a decision routed through a sibling satisfies Best.
		best = true
	}
	// The Short reference is the shortest path SATISFYING the GR model
	// of local preference (§3.3), i.e. through the best available
	// relationship class.
	short := d.RestLen <= bestClassLen(res, d.At, bestRank)
	switch {
	case best && short:
		return BestShort
	case short:
		return NonBestShort
	case best:
		return BestLong
	default:
		return NonBestLong
	}
}

// bestClassLen maps an AS's BestRank back to that class's shortest
// model length.
func bestClassLen(res *gaorexford.Result, at asn.ASN, bestRank int) int {
	switch bestRank {
	case 0:
		return res.ClassLen(at, topology.RelCustomer)
	case 1:
		return res.ClassLen(at, topology.RelPeer)
	case 2:
		return res.ClassLen(at, topology.RelProvider)
	default:
		return gaorexford.Unreachable
	}
}

// Breakdown counts decisions per category under a refinement.
func (cx *Context) Breakdown(decisions []Decision, ref Refinement) map[Category]int {
	out := make(map[Category]int, 4)
	for _, d := range decisions {
		out[cx.Classify(d, ref)]++
	}
	return out
}
