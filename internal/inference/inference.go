// Package inference re-infers AS relationships from route-monitor feeds,
// playing the role of CAIDA's serial-1/serial-2 databases in the paper.
//
// The algorithm is a compact cousin of Luckie et al. (IMC'13): transit
// degrees, a greedy Tier-1 clique, direction votes from path peaks, and
// a vantage-point-visibility test to separate settlement-free peering
// from transit. It is deliberately run on the SAME biased inputs the
// real databases use (core-heavy monitors, best paths only), so its
// errors — stale links kept by multi-month aggregation, cable operators
// labeled as peers, invisible backup links, missing edge mesh — emerge
// naturally rather than being injected.
package inference

import (
	"math/bits"
	"sort"

	"routelab/internal/asn"
	"routelab/internal/relgraph"
	"routelab/internal/topology"
	"routelab/internal/vantage"
)

// Config tunes the inference heuristics.
type Config struct {
	// MaxCliqueSize bounds the greedy Tier-1 clique.
	MaxCliqueSize int
	// VisibilityThreshold is the fraction of vantage points that must
	// see a link for it to count as transit; links seen by fewer VPs
	// are classified as peering (peer routes do not propagate upward,
	// so genuine p2p links are visible only inside the two customer
	// cones).
	VisibilityThreshold float64
	// SameOrg, when non-nil, reports whether two ASes belong to one
	// organization (from whois-based sibling grouping). Organizations
	// exchange full tables internally, so an export to a sibling is NOT
	// evidence of a customer relationship — ignoring this produces
	// phantom transit edges.
	SameOrg func(a, b asn.ASN) bool
}

// DefaultConfig mirrors the constants the accompanying tests calibrate.
func DefaultConfig() Config {
	return Config{MaxCliqueSize: 20, VisibilityThreshold: 0.3}
}

// orDefault replaces a zero Config with DefaultConfig.
func (cfg Config) orDefault() Config {
	if cfg.MaxCliqueSize == 0 {
		return DefaultConfig()
	}
	return cfg
}

// InferSnapshot infers a relationship graph from one monitor snapshot:
// the snapshot's evidence, labelled at cfg's visibility threshold.
func InferSnapshot(s *vantage.Snapshot, cfg Config) *relgraph.Graph {
	cfg = cfg.orDefault()
	return Gather(s, cfg).Label(cfg.VisibilityThreshold)
}

// Evidence is everything one snapshot says about its links before a
// visibility threshold is chosen: the observed adjacencies with their
// direction votes, vantage-point visibility and upward-export findings,
// and which ASes form the Tier-1 clique. It is computed once per
// snapshot over snapshot-local dense AS ids; Label reads it as often as
// there are thresholds to try. Read-only once gathered.
type Evidence struct {
	asns   []asn.ASN // AS id → ASN, in order of first appearance
	clique []bool    // per AS id: member of the Tier-1 clique
	links  []link    // in order of first appearance
	nVPs   int       // distinct vantage points feeding the snapshot
}

// link is one AS pair seen next to each other on a feed path.
type link struct {
	lo, hi int32 // AS ids; lo holds the lower ASN
	// adjacent: the pair appears on a clean (loop-free) path. Pairs
	// seen only on looped paths collect visibility but are not edges.
	adjacent bool
	// transit[0]: lo was seen forwarding across this link (lo mid-path,
	// hi next to it); transit[1] likewise for hi. An AS's transit
	// degree is the number of its links so marked.
	transit [2]bool
	// down votes that lo is hi's provider, up that hi is lo's.
	down, up int32
	// seen counts the distinct vantage points whose paths cross the link.
	seen int32
	// exportsUp[0]: on some path "... X lo hi ..." X is neither hi nor
	// lo's sibling, and is a clique member or at least lo's size — lo
	// exported hi-side routes to a peer or provider, which only customer
	// routes may do, so hi is lo's customer even if few monitors see the
	// edge (the research-network case). exportsUp[1] is the mirror image.
	exportsUp [2]bool
}

// gatherer is the working state of Gather: the interning tables, the
// evidence under construction, and flat scratch — nothing is allocated
// per path.
type gatherer struct {
	ids    map[asn.ASN]int32
	linkID map[uint64]int32 // lo id<<32 | hi id → index into links
	asns   []asn.ASN
	links  []link

	vp   []int32 // per AS id: vantage-point number, −1 for none
	nVPs int
	// seenBy is a bitset of vantage points per link, vpWords words each.
	seenBy  []uint64
	vpWords int

	deg  []int32 // per AS id: transit degree
	mark []int32 // per AS id: the last path (1-based) it appeared on
	// The clean paths, flat: path p is pathAS[pathEnd[p-1]:pathEnd[p]],
	// and pathLink[j] is the link between pathAS[j] and pathAS[j+1]
	// (−1 under a path's last AS).
	pathAS, pathLink, pathEnd []int32
	// ups holds one observation per raw hop "X transit other": transit
	// exported the route it has over the link to X.
	ups []upObs
}

type upObs struct {
	dir int32 // link<<1 | side; side 0: the link's lo is the transit AS, 1: its hi
	x   int32
}

func (g *gatherer) id(a asn.ASN) int32 {
	i, ok := g.ids[a]
	if !ok {
		i = int32(len(g.asns))
		g.ids[a] = i
		g.asns = append(g.asns, a)
		g.vp = append(g.vp, -1)
		g.deg = append(g.deg, 0)
		g.mark = append(g.mark, 0)
	}
	return i
}

// linkKey orders the pair by ASN, as topology.MakeLinkKey does.
func (g *gatherer) linkKey(a, b int32) (lo, hi int32, key uint64) {
	if g.asns[a] > g.asns[b] {
		a, b = b, a
	}
	return a, b, uint64(a)<<32 | uint64(b)
}

// link returns the index of the link between a and b, and which side
// of it a is on.
func (g *gatherer) link(a, b int32) (l, side int32) {
	lo, hi, key := g.linkKey(a, b)
	l, ok := g.linkID[key]
	if !ok {
		l = int32(len(g.links))
		g.linkID[key] = l
		g.links = append(g.links, link{lo: lo, hi: hi})
		for w := 0; w < g.vpWords; w++ {
			g.seenBy = append(g.seenBy, 0)
		}
	}
	if a != lo {
		side = 1
	}
	return l, side
}

// adjacent reports whether a and b are next to each other on some clean
// path.
func (g *gatherer) adjacent(a, b int32) bool {
	_, _, key := g.linkKey(a, b)
	l, ok := g.linkID[key]
	return ok && g.links[l].adjacent
}

// Gather collects the evidence of one snapshot. It reads cfg's clique
// bound and sibling oracle, never the visibility threshold.
func Gather(s *vantage.Snapshot, cfg Config) *Evidence {
	cfg = cfg.orDefault()
	g := readPaths(s)
	g.vote()
	clique := findClique(g.asns, g.deg, g.adjacent, cfg.MaxCliqueSize)
	g.judgeExports(clique, cfg.SameOrg)
	for l := range g.links {
		for _, w := range g.seenBy[l*g.vpWords : (l+1)*g.vpWords] {
			g.links[l].seen += int32(bits.OnesCount64(w))
		}
	}
	return &Evidence{asns: g.asns, clique: clique, links: g.links, nVPs: g.nVPs}
}

// readPaths makes the one pass over the snapshot's entries: everything
// that can be booked path by path (links, visibility, transit degrees,
// the clean paths themselves) is; what needs the final degrees (votes,
// clique, upward exports) is left for Gather.
func readPaths(s *vantage.Snapshot) *gatherer {
	g := &gatherer{ids: make(map[asn.ASN]int32), linkID: make(map[uint64]int32)}
	hops := 0
	for i := range s.Entries {
		if p := g.id(s.Entries[i].Peer); g.vp[p] < 0 {
			g.vp[p] = int32(g.nVPs)
			g.nVPs++
		}
		hops += len(s.Entries[i].Path)
	}
	g.vpWords = (g.nVPs + 63) / 64
	// The flat stores hold at most one slot per AS on a path: size them
	// once instead of growing them by doubling.
	g.pathAS = make([]int32, 0, hops)
	g.pathLink = make([]int32, 0, hops)
	g.pathEnd = make([]int32, 0, len(s.Entries))
	g.ups = make([]upObs, 0, hops)

	var raw, links []int32 // one path's AS ids and the links under its hops
	for i := range s.Entries {
		e := &s.Entries[i]
		raw = raw[:0]
		for _, a := range e.Path {
			raw = append(raw, g.id(a))
		}
		links = g.observe(g.vp[g.id(e.Peer)], raw, links[:0])
		g.keepIfClean(int32(i)+1, raw, links)
	}
	return g
}

// observe records what a path shows as announced — prepending, loops
// and all, which is how visibility and upward exports have always been
// counted: which vantage point saw each link, and to whom each mid-path
// AS exported. It returns the path's links in order, appended to hops.
func (g *gatherer) observe(vp int32, raw, hops []int32) []int32 {
	for j := 0; j+1 < len(raw); j++ {
		if raw[j] == raw[j+1] {
			continue // prepending: not a link
		}
		l, side := g.link(raw[j], raw[j+1])
		hops = append(hops, l)
		g.seenBy[int(l)*g.vpWords+int(vp>>6)] |= 1 << (vp & 63)
		if j > 0 {
			g.ups = append(g.ups, upObs{dir: l<<1 | side, x: raw[j-1]})
		}
	}
	return hops
}

// keepIfClean collapses prepending and, unless the path loops (poisoned
// or corrupted) or is empty, stores it for the direction votes and books
// what it shows: its links are adjacencies, and every mid-path AS
// forwards between its two neighbours. stamp is unique to the path.
func (g *gatherer) keepIfClean(stamp int32, raw, hops []int32) {
	start := len(g.pathAS)
	for _, a := range raw {
		if n := len(g.pathAS); n > start && g.pathAS[n-1] == a {
			continue // prepending
		}
		if g.mark[a] == stamp {
			g.pathAS = g.pathAS[:start] // loop
			return
		}
		g.mark[a] = stamp
		g.pathAS = append(g.pathAS, a)
	}
	if len(g.pathAS) == start {
		return
	}
	// A loop-free path's hops are exactly its non-prepending raw hops.
	g.pathLink = append(g.pathLink, hops...)
	g.pathLink = append(g.pathLink, -1)
	g.pathEnd = append(g.pathEnd, int32(len(g.pathAS)))
	for k, l := range hops {
		lk := &g.links[l]
		lk.adjacent = true
		if k > 0 {
			g.forwards(lk, g.pathAS[start+k])
		}
		if k+1 < len(hops) {
			g.forwards(lk, g.pathAS[start+k+1])
		}
	}
}

// forwards notes that a was seen mid-path next to the other end of lk:
// one more distinct neighbour in a's transit degree, the first time.
func (g *gatherer) forwards(lk *link, a int32) {
	side := 0
	if a != lk.lo {
		side = 1
	}
	if !lk.transit[side] {
		lk.transit[side] = true
		g.deg[a]++
	}
}

// vote locates each clean path's peak (highest transit degree, the
// first on a tie) and votes provider-ward on both slopes.
func (g *gatherer) vote() {
	start := int32(0)
	for _, end := range g.pathEnd {
		p := g.pathAS[start:end]
		peak := 0
		for i := 1; i < len(p); i++ {
			if g.deg[p[i]] > g.deg[p[peak]] {
				peak = i
			}
		}
		for i := 0; i+1 < len(p); i++ {
			provider := p[i] // downhill toward the origin
			if i+1 <= peak {
				provider = p[i+1] // uphill toward the peak
			}
			if lk := &g.links[g.pathLink[int(start)+i]]; lk.lo == provider {
				lk.down++
			} else {
				lk.up++
			}
		}
		start = end
	}
}

// judgeExports settles exportsUp from the recorded observations, now
// that transit degrees and the clique are final.
func (g *gatherer) judgeExports(clique []bool, sameOrg func(a, b asn.ASN) bool) {
	for _, o := range g.ups {
		lk, side := &g.links[o.dir>>1], o.dir&1
		if lk.exportsUp[side] || !lk.adjacent {
			continue
		}
		transit, other := lk.lo, lk.hi
		if side == 1 {
			transit, other = other, transit
		}
		// Export to a clique member or to a network at least as large is
		// a peer/provider export, legal only for customer routes —
		// unless it stays inside one organization, which proves nothing.
		if o.x != other && (clique[o.x] || g.deg[o.x] >= g.deg[transit]) &&
			!(sameOrg != nil && sameOrg(g.asns[o.x], g.asns[transit])) {
			lk.exportsUp[side] = true
		}
	}
}

// findClique greedily grows the Tier-1 clique from the highest transit
// degrees (ties toward the lower ASN), requiring mutual adjacency. ASes
// are ids into asns and deg; the result marks the members.
func findClique(asns []asn.ASN, deg []int32, adjacent func(a, b int32) bool, maxSize int) []bool {
	clique := make([]bool, len(asns))
	var cands []int32
	for a, d := range deg {
		if d > 0 {
			cands = append(cands, int32(a))
		}
	}
	if len(cands) == 0 {
		return clique
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if deg[a] != deg[b] {
			return deg[a] > deg[b]
		}
		return asns[a] < asns[b]
	})
	minDeg := deg[cands[0]] / 4 // members must be at least a quarter of the top
	var members []int32
	for _, c := range cands {
		if len(members) >= maxSize || deg[c] < minDeg {
			break
		}
		connected := true
		for _, m := range members {
			if !adjacent(c, m) {
				connected = false
				break
			}
		}
		if connected {
			clique[c] = true
			members = append(members, c)
		}
	}
	return clique
}

// Label turns the evidence into a relationship graph under a visibility
// threshold: the fraction of vantage points that must see a link for it
// to count as transit.
func (ev *Evidence) Label(threshold float64) *relgraph.Graph {
	g := relgraph.New()
	for i := range ev.links {
		l := &ev.links[i]
		if !l.adjacent {
			continue
		}
		visibility := 0.0
		if ev.nVPs > 0 {
			visibility = float64(l.seen) / float64(ev.nVPs)
		}
		var hiRole topology.Rel // hi's role from lo
		switch {
		case ev.clique[l.lo] && ev.clique[l.hi]:
			hiRole = topology.RelPeer
		case visibility < threshold:
			// Few monitors see the edge — usually settlement-free
			// peering, unless the export pattern proves transit.
			switch {
			case l.exportsUp[0]:
				hiRole = topology.RelCustomer
			case l.exportsUp[1]:
				hiRole = topology.RelProvider
			default:
				hiRole = topology.RelPeer
			}
		case l.down >= l.up:
			// lo is hi's provider.
			hiRole = topology.RelCustomer
		default:
			hiRole = topology.RelProvider
		}
		g.Set(ev.asns[l.lo], ev.asns[l.hi], hiRole)
	}
	return g
}

// Aggregate merges per-epoch graphs the way §3.3 describes: the link set
// is the union over all epochs (which is how decommissioned links go
// stale), and when relationship labels conflict, the two most recent
// epochs win if they agree, otherwise the overall majority (recency
// breaking ties). Graphs must be ordered oldest first.
func Aggregate(graphs []*relgraph.Graph) *relgraph.Graph {
	out := relgraph.New()
	if len(graphs) == 0 {
		return out
	}
	type obs struct {
		epoch int
		role  topology.Rel
	}
	all := make(map[topology.LinkKey][]obs)
	// order lists the links as first met: the output's AS indices follow
	// the order of its Set calls, which must not be a map's.
	var order []topology.LinkKey
	for epoch, g := range graphs {
		for _, e := range g.Edges() {
			k := topology.MakeLinkKey(e.A, e.B)
			role := e.Role // B's (Hi's) role from A (Lo)
			if k.Lo != e.A {
				role = role.Invert()
			}
			if _, met := all[k]; !met {
				order = append(order, k)
			}
			all[k] = append(all[k], obs{epoch, role})
		}
	}
	latest := len(graphs) - 1
	for _, k := range order {
		os := all[k]
		// Latest-two agreement.
		var lastTwo []topology.Rel
		for _, o := range os {
			if o.epoch >= latest-1 {
				lastTwo = append(lastTwo, o.role)
			}
		}
		if len(lastTwo) == 2 && lastTwo[0] == lastTwo[1] {
			out.Set(k.Lo, k.Hi, lastTwo[0])
			continue
		}
		// Majority, recency-weighted by breaking ties toward later epochs.
		count := make(map[topology.Rel]int)
		lastEpoch := make(map[topology.Rel]int)
		for _, o := range os {
			count[o.role]++
			if o.epoch > lastEpoch[o.role] {
				lastEpoch[o.role] = o.epoch
			}
		}
		var bestRole topology.Rel
		bestN, bestE := -1, -1
		for _, role := range []topology.Rel{topology.RelCustomer, topology.RelProvider, topology.RelPeer, topology.RelSibling} {
			n, ok := count[role]
			if !ok {
				continue
			}
			if n > bestN || (n == bestN && lastEpoch[role] > bestE) {
				bestRole, bestN, bestE = role, n, lastEpoch[role]
			}
		}
		out.Set(k.Lo, k.Hi, bestRole)
	}
	return out
}

// Accuracy compares an inferred graph against the ground truth and
// reports per-category agreement — the sanity metric EXPERIMENTS.md
// records. Sibling ground-truth links count as correct when inferred as
// either c2p or p2p is false; they are matched only by RelSibling (which
// the inference never emits), so they always count as mislabeled —
// exactly CAIDA's situation.
type Accuracy struct {
	Links, Correct      int
	MissingFromInferred int
	ExtraInInferred     int
}

// MeasureAccuracy computes label agreement on the intersection of edges
// plus the two difference counts.
func MeasureAccuracy(inferred, truth *relgraph.Graph) Accuracy {
	var acc Accuracy
	for _, e := range truth.Edges() {
		if !inferred.HasEdge(e.A, e.B) {
			acc.MissingFromInferred++
			continue
		}
		acc.Links++
		if inferred.Rel(e.A, e.B) == e.Role {
			acc.Correct++
		}
	}
	for _, e := range inferred.Edges() {
		if !truth.HasEdge(e.A, e.B) {
			acc.ExtraInInferred++
		}
	}
	return acc
}
