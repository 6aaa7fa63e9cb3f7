// Package gaorexford computes, over an (inferred) relationship graph,
// everything the Gao–Rexford routing model predicts about paths toward a
// destination AS: which relationship classes of route each AS has
// available, and the shortest policy-compliant path length per class.
//
// This is the "model" side of the paper's comparison (§3.3): a measured
// decision is judged Best if the chosen neighbor's relationship class is
// the best class the model says is available, and Short if the measured
// path is as short as the shortest valley-free path.
//
// The computation is the classic three-phase relaxation, run as one
// breadth-first search over (AS, class) states:
//
//	customer routes  from the destination up customer→provider edges.
//	peer routes      one peer edge on top of a customer route.
//	provider routes  downward propagation: 1 + min over providers v of
//	                 v's customer, peer and provider lengths.
//
// Sibling edges, when present in a graph, relay routes without changing
// their class (the organization acts as one AS).
//
// Results are flat []int32 rows over the graph's dense AS index
// (DESIGN.md §12, analysis-plane layout): a computation allocates its
// result, the rows and one queue, whatever the number of ASes it visits.
package gaorexford

import (
	"math"
	"slices"

	"routelab/internal/asn"
	"routelab/internal/relgraph"
	"routelab/internal/topology"
)

// Unreachable is the length reported when no policy-compliant path of a
// class exists.
const Unreachable = math.MaxInt32

// Result holds the model's predictions toward one destination, laid out
// over the dense AS index of the graph Compute ran on.
type Result struct {
	Dst asn.ASN

	g *relgraph.Graph
	// dist is three rows of g.NumASes() lengths — customer, peer and
	// provider class, in that order, one allocation — indexed
	// class*NumASes + AS index; −1 means no route of that class.
	dist []int32
	// masked lists the directed edges (from<<32 | to, dense indices)
	// Compute treated as absent, ascending; nil when nothing is masked.
	masked []uint64
}

// Compute runs the model toward dst on g. The masked edges (if any) are
// treated as absent — the mechanism behind the prefix-specific-policy
// refinements, which drop origin edges not observed carrying the prefix.
// g must not change afterwards: the result reads it.
func Compute(g *relgraph.Graph, dst asn.ASN, masked ...relgraph.Edge) *Result {
	r := &Result{Dst: dst, g: g, dist: make([]int32, 3*g.NumASes())}
	for i := range r.dist {
		r.dist[i] = -1
	}
	if len(masked) > 0 {
		r.masked = make([]uint64, 0, 2*len(masked))
		for _, e := range masked {
			a, okA := g.Index(e.A)
			b, okB := g.Index(e.B)
			if okA && okB {
				r.masked = append(r.masked, uint64(a)<<32|uint64(b), uint64(b)<<32|uint64(a))
			}
		}
		slices.Sort(r.masked)
	}
	if di, ok := g.Index(dst); ok {
		r.relax(di)
	}
	return r
}

// Route classes: the rows of Result.dist. classCust covers routes
// exportable to everyone: own routes and customer-learned routes.
// Sibling edges are organizational glue: a sibling relays ANY route, but
// the route's class (and thus its exportability) is preserved across the
// sibling hop — the organization acts as one AS.
const (
	classCust = 0
	classPeer = 1
	classProv = 2
)

// maxLen bounds the path lengths the relaxation extends: a state that
// far out is recorded but relays nothing.
const maxLen = 64

// isMasked reports whether Compute was told to treat the edge between
// the ASes with indices a and b as absent.
func (r *Result) isMasked(a, b int32) bool {
	if len(r.masked) == 0 {
		return false
	}
	_, found := slices.BinarySearch(r.masked, uint64(a)<<32|uint64(b))
	return found
}

// relax fills r.dist from the destination's index outward. Every edge
// costs one, so a FIFO over states (AS, class) visits them in
// non-decreasing length and the first length a state is given is its
// shortest: a state is queued at most once, which bounds the queue — the
// computation's only scratch — at 3·NumASes. Lengths count edges,
// matching Path.Len() as seen from each AS (dst itself is 0). A state is
// its offset into r.dist.
func (r *Result) relax(dst int32) {
	n := int32(r.g.NumASes())
	queue := make([]int32, 1, 3*n)
	queue[0] = classCust*n + dst
	r.dist[queue[0]] = 0
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		cls, a := s/n, s%n
		d := r.dist[s] + 1
		for _, e := range r.g.Row(a) {
			// e.Role is neighbour b's role as a sees it; what b hears
			// depends on a's role as b sees it, the inverse.
			var to int32
			switch e.Role {
			case topology.RelProvider:
				// b hears from its customer a only a's
				// exportable-to-all routes.
				if cls != classCust {
					continue
				}
				to = classCust
			case topology.RelSibling:
				// b hears ANY of its sibling's routes; the class
				// (exportability) is preserved across the hop.
				to = cls
			case topology.RelPeer:
				// b hears a's exportable-to-all routes as peer routes.
				if cls != classCust {
					continue
				}
				to = classPeer
			case topology.RelCustomer:
				// b hears ANY of its provider a's routes.
				to = classProv
			default:
				continue
			}
			t := to*n + e.Index
			if r.dist[t] >= 0 || r.isMasked(a, e.Index) {
				continue
			}
			r.dist[t] = d
			if d < maxLen {
				queue = append(queue, t)
			}
		}
	}
}

// lens returns a's shortest length per class, −1 for none. An AS the
// graph does not mention has no route — except the destination, which
// holds its own whether or not the graph knows it.
func (r *Result) lens(a asn.ASN) [3]int32 {
	i, ok := r.g.Index(a)
	if !ok {
		if a == r.Dst {
			return [3]int32{0, -1, -1}
		}
		return [3]int32{-1, -1, -1}
	}
	n := int32(r.g.NumASes())
	return [3]int32{r.dist[i], r.dist[n+i], r.dist[2*n+i]}
}

// ClassLen returns the shortest model path length from a to the
// destination using a route of the given class (the class is the
// relationship of the FIRST edge: customer route, peer route, provider
// route), or Unreachable.
func (r *Result) ClassLen(a asn.ASN, class topology.Rel) int {
	cls := class.Rank()
	if cls > classProv {
		return Unreachable
	}
	if d := r.lens(a)[cls]; d >= 0 {
		return int(d)
	}
	return Unreachable
}

// BestRank returns the rank (0 customer, 1 peer, 2 provider) of the best
// relationship class through which the model says a can reach the
// destination, or 3 when unreachable.
func (r *Result) BestRank(a asn.ASN) int {
	for cls, d := range r.lens(a) {
		if d >= 0 {
			return cls
		}
	}
	return 3
}

// ShortestLen returns the shortest valley-free path length from a to the
// destination across all classes (the "Short" reference), counting the
// ASes after a itself — so a path a→x→dst has length 2. Unreachable when
// the model offers no path.
func (r *Result) ShortestLen(a asn.ASN) int {
	best := Unreachable
	for _, d := range r.lens(a) {
		if d >= 0 && int(d) < best {
			best = int(d)
		}
	}
	return best
}

// Reachable reports whether the model offers a any path to the
// destination.
func (r *Result) Reachable(a asn.ASN) bool { return r.ShortestLen(a) < Unreachable }

// ShortestPath reconstructs ONE shortest policy-compliant path from a to
// the destination (a first, destination last), or nil when unreachable.
// Ties break toward lower ASNs, so the result is deterministic. The
// masked edges from Compute are honored.
func (r *Result) ShortestPath(a asn.ASN) []asn.ASN {
	// Start at a's shortest state (the better class on a tie).
	cls, d := int32(-1), int32(Unreachable)
	for c, x := range r.lens(a) {
		if x >= 0 && x < d {
			cls, d = int32(c), x
		}
	}
	if cls < 0 {
		return nil
	}
	n := int32(r.g.NumASes())
	cur, _ := r.g.Index(a) // a route longer than 0 means the graph has a
	path := make([]asn.ASN, 1, d+1)
	path[0] = a
	for ; d > 0; d-- {
		// Which state of which neighbour produced cur's state? Rows
		// ascend by ASN, so the first neighbour that could have is the
		// lowest.
		next, nextCls := int32(-1), int32(0)
		for _, e := range r.g.Row(cur) {
			lo, hi := int32(0), int32(-1) // b's candidate classes, inclusive
			switch {
			case e.Role == topology.RelSibling:
				lo, hi = cls, cls // class preserved across sibling hops
			case cls == classCust && e.Role == topology.RelCustomer,
				cls == classPeer && e.Role == topology.RelPeer:
				lo, hi = classCust, classCust
			case cls == classProv && e.Role == topology.RelProvider:
				lo, hi = classCust, classProv
			}
			for bc := lo; bc <= hi && next < 0; bc++ {
				if r.dist[bc*n+e.Index] == d-1 && !r.isMasked(cur, e.Index) {
					next, nextCls = e.Index, bc
				}
			}
			if next >= 0 {
				break
			}
		}
		path = append(path, r.g.ASN(next))
		cur, cls = next, nextCls
	}
	return path
}
