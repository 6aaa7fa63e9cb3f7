package bgp

import (
	"math/bits"
	"slices"
	"sync"

	"routelab/internal/asn"
	"routelab/internal/geo"
	"routelab/internal/obs"
	"routelab/internal/topology"
)

// Cached obs handles (see internal/obs: Reset zeroes in place, so
// init-time handles stay attached). Hot-path counters accumulate in
// Computation fields and flush once per Converge, so instrumentation
// adds no per-event atomics.
var (
	obsConvergeCalls    = obs.Default().Counter("bgp.converge.calls")
	obsConvergeEvents   = obs.Default().Counter("bgp.converge.events")
	obsConvergeChanges  = obs.Default().Counter("bgp.converge.changes")
	obsConvergeAdj      = obs.Default().Counter("bgp.converge.adjacencies")
	obsConvergeAdverts  = obs.Default().Counter("bgp.converge.adverts")
	obsConvergeDiverged = obs.Default().Counter("bgp.converge.diverged")
	obsAnnounce         = obs.Default().Counter("bgp.announce.total")
	obsAnnouncePoisoned = obs.Default().Counter("bgp.announce.poisoned")
	obsPoisonedASes     = obs.Default().Counter("bgp.announce.poisoned_ases")
	obsWithdraw         = obs.Default().Counter("bgp.withdraw.total")
	obsInternHits       = obs.Default().Counter("bgp.intern.hits")
	obsInternMisses     = obs.Default().Counter("bgp.intern.misses")
	obsRowClones        = obs.Default().Counter("bgp.fork.row_clones")
)

// Engine computes ground-truth routing over a topology. It is immutable
// after construction and safe for concurrent use; all per-prefix state
// lives in Computation.
type Engine struct {
	topo *topology.Topology
	seed int64

	// forks holds the storage of Released computations (*forkStorage) for
	// the next Fork: contents stale, so it is no state of the engine's.
	forks sync.Pool

	// Dense indexes for the hot path, all built here once. asns[i] is
	// the AS at index i (ascending, so index order is ASN order);
	// index[a] is the inverse. AS i's adjacencies are adj[off[i]:off[i+1]]
	// in the topology's neighbor order, and its adj-RIB-in slot s holds
	// what adjacency off[i]+s's peer advertised. pol[i] is the slice of
	// AS i's policy the kernel reads per advertisement.
	asns  []asn.ASN
	index map[asn.ASN]int32
	off   []int32
	adj   []adjacency
	pol   []asPolicy

	// fixed[k] is adjacency k's per-prefix state where that does not
	// depend on the prefix; varying lists the links where it does (more
	// than one interconnection city, or a partial-transit arrangement),
	// which setPrefix evaluates once per computation.
	fixed   []adjState
	varying []linkPair
}

// adjacency is one direction of a link: the owning AS x advertising to
// its neighbor.
type adjacency struct {
	link *topology.Link
	peer int32 // dense index of the neighbor
	back int32 // slot of x inside the neighbor's adj-RIB-in row
}

// adjState is what an adjacency x→n contributes to every advertisement
// crossing it for one prefix.
type adjState struct {
	city geo.CityID   // interconnection city the prefix's traffic uses
	igp  uint16       // n's intradomain cost to its egress toward x there
	rel  topology.Rel // n's effective role as x sees it; x's role at n is its inverse
}

// linkPair is one link priced once (newLinkPair): what both of its
// directions contribute at each interconnection city, hybrid roles
// applied, so that binding a prefix only has to pick the city.
type linkPair struct {
	link           *topology.Link
	fromLo, fromHi int32 // adjacency indexes owned by link.Lo and link.Hi
	// at[geo.ContinentNone] holds every city in link order; on a link
	// with several, at[cont] holds those on continent cont.
	at [geo.OC + 1][]linkState
}

// linkState is the adjState of the adjacencies owned by link.Lo and
// link.Hi at one city.
type linkState struct{ lo, hi adjState }

// asPolicy is the per-AS policy the kernel consults when the AS hears
// an advertisement.
type asPolicy struct {
	country uint16 // dense id of the AS's home country
	flags   uint8
}

const (
	polNoLoopPrevention uint8 = 1 << iota
	polFiltersASSets
	polDomesticBias
	polResearchPreference
	polContentPeerTE
	polIsResearch // the AS itself is an R&E backbone
)

// New returns an engine. The seed drives the deterministic-but-arbitrary
// parts of the ground truth (IGP costs, per-link interconnection city
// assignment); two engines with the same topology and seed agree exactly.
// The topology must be final: every link's roles and costs are priced
// here, once, and a later edit of a Link is never seen.
func New(topo *topology.Topology, seed int64) *Engine {
	e := &Engine{topo: topo, seed: seed}
	e.asns = topo.ASNs()
	n := len(e.asns)
	e.index = make(map[asn.ASN]int32, n)
	for i, a := range e.asns {
		e.index[a] = int32(i)
	}

	countries := make(map[geo.CountryCode]uint16)
	e.pol = make([]asPolicy, n)
	e.off = make([]int32, n+1)
	for i, a := range e.asns {
		x := topo.AS(a)
		id, ok := countries[x.HomeCountry]
		if !ok {
			id = uint16(len(countries))
			countries[x.HomeCountry] = id
		}
		p := asPolicy{country: id}
		set := func(on bool, flag uint8) {
			if on {
				p.flags |= flag
			}
		}
		set(x.NoLoopPrevention, polNoLoopPrevention)
		set(x.FiltersASSets, polFiltersASSets)
		set(x.DomesticBias, polDomesticBias)
		set(x.ResearchPreference, polResearchPreference)
		set(x.ContentPeerTE, polContentPeerTE)
		set(x.Class == topology.Research, polIsResearch)
		e.pol[i] = p
		e.off[i+1] = e.off[i] + int32(len(topo.Neighbors(a)))
	}

	e.adj = make([]adjacency, e.off[n])
	for i, a := range e.asns {
		for s, nb := range topo.Neighbors(a) {
			e.adj[int(e.off[i])+s] = adjacency{link: nb.Link, peer: e.index[nb.ASN]}
		}
	}
	// Pair the two directions of every link: each learns its slot in the
	// other's row, and links with prefix-dependent state are set aside.
	e.fixed = make([]adjState, len(e.adj))
	first := make(map[*topology.Link]int32, len(e.adj)/2)
	for k := range e.adj {
		l := e.adj[k].link
		o, seen := first[l]
		if !seen {
			first[l] = int32(k)
			continue
		}
		i, j := e.adj[o].peer, e.adj[k].peer // k is owned by i, o by j
		e.adj[k].back = o - e.off[j]
		e.adj[o].back = int32(k) - e.off[i]
		pair := e.newLinkPair(l)
		pair.fromLo, pair.fromHi = o, int32(k)
		if e.asns[i] == l.Lo {
			pair.fromLo, pair.fromHi = pair.fromHi, pair.fromLo
		}
		if len(l.Cities) > 1 || len(l.PartialTransitFor) > 0 {
			e.varying = append(e.varying, pair)
		} else {
			e.fixed[pair.fromLo], e.fixed[pair.fromHi] = e.linkState(&pair, asn.Prefix{}, geo.ContinentNone)
		}
	}
	return e
}

// Topology returns the engine's topology.
func (e *Engine) Topology() *topology.Topology { return e.topo }

// degree is the number of base adjacencies of AS i: the width of its
// adj-RIB-in row before any what-if peering.
func (e *Engine) degree(i int32) int { return int(e.off[i+1] - e.off[i]) }

// maxEvents caps the event-driven convergence; policy bonuses step
// outside the Gao–Rexford safety conditions, so divergence is
// theoretically possible. The cap is far above anything a converging
// run needs.
const maxEventsPerAS = 64

// Computation is an incremental per-prefix routing computation. Announce,
// Withdraw, and Converge may be interleaved, which is how the PEERING
// experiments change announcements over time. Not safe for concurrent use.
type Computation struct {
	e      *Engine
	prefix asn.Prefix
	// contentPrefix caches topo.IsContentPrefix(prefix).
	contentPrefix bool

	anns map[asn.ASN]Announcement // active announcements, by origin
	// origin holds the origin route of every announcing AS (by dense
	// index), rebuilt by Announce and dropped by Withdraw.
	origin map[int32]rec

	// adjIn[i][s] is the route AS i currently holds from its s-th
	// neighbor (path 0 = none); best[i] is a copy of the installed best
	// route. Both hold records by value. A root computation's rows are
	// carved from one slab; rows a fork writes, and rows AddPeering
	// widens, come from the rows arena.
	adjIn [][]rec
	best  []rec
	rows  rowArena

	// sharedRow[i] marks adjIn rows borrowed from a frozen parent by
	// Fork; deliver clones such a row before its first write (nil for
	// root computations — no COW overhead).
	sharedRow []bool
	// rowClones counts COW clones for the obs flush.
	rowClones int

	// paths is this computation's segment of the AS-path tree (chained
	// to the parent's after Fork); every rec.path is an id in it.
	paths pathTree
	// compacting is column's scratch, kept across the prefixes a
	// recycled computation converges.
	compacting compactScratch
	// pathCache holds the public form of paths already handed out, so a
	// repeated Best allocates nothing. Written only while the
	// computation is unfrozen (single owner); a frozen computation may
	// be read from many goroutines and materialises misses afresh.
	pathCache map[uint32]asn.Path

	// adjSt[k] is the per-prefix state of the engine's adjacency k.
	// Immutable once set, so forks share their parent's.
	adjSt []adjState

	// frozen is set by Freeze, once, by the owner before the Base is
	// published; the mutators panic once it is set. Nothing a Base
	// offers writes it, so concurrent forks only ever read it. Release
	// sets it too, with released, to end the computation.
	frozen   bool
	released bool

	// ov holds this computation's what-if mutations (failed links, added
	// peerings, LocalPref overrides); nil for ordinary computations, so
	// the base hot path pays only a nil check. See delta.go.
	ov *overlay

	// q is the queue of ASes whose advertisements must be recomputed;
	// force marks announcement-policy changes.
	q     eventQueue
	force []bool
	// upSent[i] is false only while no base neighbor of AS i other than
	// its customers and siblings holds a route from it: what lets process
	// step over them while the export rule denies them i's best route.
	upSent []bool

	clock     uint32 // monotone event counter; feeds Route.Age
	converged bool

	nProcessed, nChanges int
	// nAdj counts the adjacencies the events of this Converge met,
	// nAdverts those process derived an advertisement for.
	nAdj, nAdverts int
	// flushedProcessed/flushedChanges track what the obs counters have
	// already seen, so each Converge flushes only its own delta.
	flushedProcessed, flushedChanges int
}

// rowArena hands out adj-RIB-in rows from chunks that quadruple in size
// up to what a copy of every row would need, so a what-if that touches
// three rows allocates a few KB and a poison that rewrites them all
// allocates a handful of times, not once per row. Chunks never move: a
// row stays valid for as long as something points at it.
type rowArena struct {
	free []rec
	last int // size of the latest chunk
	left int // slots a copy of every not-yet-copied row would still need
	// slab is the full-width first chunk of a fork on recycled storage
	// (contents stale), kept so Release can hand it on.
	slab []rec
}

func (a *rowArena) take(n int) []rec {
	if len(a.free) < n {
		a.last = max(n, min(max(4*a.last, 256), a.left))
		a.free = make([]rec, a.last)
	}
	a.left -= n
	row := a.free[:n:n]
	a.free = a.free[n:]
	return row
}

// eventQueue is a bucketed priority queue of AS indexes: processing the
// shortest installed routes first approximates BFS propagation and
// slashes path-exploration churn. An AS is queued at most once, so each
// bucket is an intrusive FIFO threaded through next, and a bitmap finds
// the first non-empty bucket. Links are 1 + index; the zero value is an
// empty queue.
type eventQueue struct {
	head, tail [nBuckets]int32
	nonEmpty   [nBuckets / 64]uint64
	next       []int32
	queued     []bool
	n          int
}

// nBuckets is four route classes times 48 path lengths.
const nBuckets = 4 * 48

func (q *eventQueue) push(i int32, p int) {
	q.queued[i] = true
	q.n++
	q.next[i] = 0
	if q.tail[p] == 0 {
		q.head[p] = i + 1
		q.nonEmpty[p/64] |= 1 << (p % 64)
	} else {
		q.next[q.tail[p]-1] = i + 1
	}
	q.tail[p] = i + 1
}

// pop removes the first AS of the lowest non-empty bucket. The queue
// must not be empty.
func (q *eventQueue) pop() int32 {
	w := 0
	for q.nonEmpty[w] == 0 {
		w++
	}
	p := w*64 + bits.TrailingZeros64(q.nonEmpty[w])
	i := q.head[p] - 1
	q.head[p] = q.next[i]
	if q.head[p] == 0 {
		q.tail[p] = 0
		q.nonEmpty[w] &^= 1 << (p % 64)
	}
	q.queued[i] = false
	q.n--
	return i
}

// NewComputation starts an empty computation for a prefix.
func (e *Engine) NewComputation(prefix asn.Prefix) *Computation {
	n := len(e.asns)
	c := &Computation{
		e:         e,
		anns:      make(map[asn.ASN]Announcement),
		origin:    make(map[int32]rec),
		adjIn:     make([][]rec, n),
		best:      make([]rec, n),
		paths:     newPathTree(n),
		adjSt:     make([]adjState, len(e.adj)),
		q:         eventQueue{next: make([]int32, n), queued: make([]bool, n)},
		force:     make([]bool, n),
		upSent:    make([]bool, n),
		converged: true,
	}
	slab := make([]rec, len(e.adj))
	for i := range c.adjIn {
		c.adjIn[i] = slab[e.off[i]:e.off[i+1]:e.off[i+1]]
	}
	c.setPrefix(prefix)
	return c
}

// setPrefix binds the computation to its prefix: everything about a link
// that depends on the prefix is decided here, once, instead of per
// advertisement.
func (c *Computation) setPrefix(prefix asn.Prefix) {
	e := c.e
	c.prefix = prefix
	c.contentPrefix = e.topo.IsContentPrefix(prefix)
	copy(c.adjSt, e.fixed)
	cont := e.prefixContinent(prefix)
	for k := range e.varying {
		v := &e.varying[k]
		c.adjSt[v.fromLo], c.adjSt[v.fromHi] = e.linkState(v, prefix, cont)
	}
}

// reset returns a root computation that was never forked nor given
// what-if edits to the state NewComputation(prefix) builds, keeping its
// storage: ComputeRIB converges thousands of prefixes on a handful of
// computations.
func (c *Computation) reset(prefix asn.Prefix) {
	if c.frozen || c.ov != nil {
		panic("bgp: reset of a frozen or what-if Computation")
	}
	clear(c.anns)
	clear(c.origin)
	for _, row := range c.adjIn {
		clear(row)
	}
	clear(c.best)
	c.paths.reset()
	clear(c.pathCache)
	c.q = eventQueue{next: c.q.next, queued: c.q.queued}
	clear(c.q.queued)
	clear(c.force)
	clear(c.upSent)
	c.clock, c.converged = 0, true
	c.nProcessed, c.nChanges, c.flushedProcessed, c.flushedChanges = 0, 0, 0, 0
	c.setPrefix(prefix)
}

func (c *Computation) idx(a asn.ASN) (int32, bool) {
	i, ok := c.e.index[a]
	return i, ok
}

func (c *Computation) enqueue(i int32) {
	if c.q.queued[i] {
		return
	}
	p := 0
	if r := &c.best[i]; r.path != 0 {
		// Mirror the classic three-phase computation: customer-learned
		// routes settle first, then peer, then provider; shorter paths
		// within each class. Origin routes (FromRel none) lead.
		cls := 0
		switch r.from {
		case topology.RelCustomer, topology.RelSibling:
			cls = 1
		case topology.RelPeer:
			cls = 2
		case topology.RelProvider:
			cls = 3
		}
		p = cls*48 + int(min(r.plen, 47))
	}
	c.q.push(i, p)
}

// Announce activates an announcement (replacing any previous announcement
// by the same origin) and marks the origin for reprocessing. Call
// Converge to propagate.
func (c *Computation) Announce(a Announcement) {
	if c.frozen {
		panic("bgp: Announce on a " + c.sealed())
	}
	a.Prefix = c.prefix
	c.anns[a.Origin] = a
	obsAnnounce.Inc()
	if len(a.Poisoned) > 0 {
		obsAnnouncePoisoned.Inc()
		obsPoisonedASes.Add(int64(len(a.Poisoned)))
	}
	if i, ok := c.idx(a.Origin); ok {
		c.origin[i] = c.originRoute(i, a)
		c.force[i] = true
		c.enqueue(i)
	}
}

// Withdraw removes an origin's announcement.
func (c *Computation) Withdraw(origin asn.ASN) {
	if c.frozen {
		panic("bgp: Withdraw on a " + c.sealed())
	}
	delete(c.anns, origin)
	obsWithdraw.Inc()
	if i, ok := c.idx(origin); ok {
		delete(c.origin, i)
		c.force[i] = true
		c.enqueue(i)
	}
}

// originRoute builds AS i's own route for its announcement: the path as
// it leaves the origin (ORIGIN {poisoned} ORIGIN when poisoning, plus
// any prepends), at a preference nothing learned can beat. Re-announcing
// finds the path's nodes already in the tree and allocates nothing.
func (c *Computation) originRoute(i int32, a Announcement) rec {
	node := c.extend(0, i)
	if len(a.Poisoned) > 0 {
		node = c.extend(c.paths.childSet(node, a.Poisoned), i)
	}
	for k := 0; k < a.Prepend; k++ {
		node = c.extend(node, i)
	}
	return rec{path: node, nh: -1, lp: originLocalPref, plen: c.paths.node(node).plen}
}

// extend returns path with AS i prepended.
func (c *Computation) extend(path uint32, i int32) uint32 {
	p := c.e.pol[i]
	return c.paths.child(path, c.e.asns[i], p.country, p.flags&polIsResearch != 0)
}

// Converge drains the event queue to a fixed point (or the event cap)
// and reports whether it settled.
func (c *Computation) Converge() bool {
	limit := maxEventsPerAS * len(c.e.asns)
	events := 0
	for c.q.n > 0 {
		i := c.q.pop()
		events++
		if events > limit {
			c.converged = false
			c.flushObs()
			return false
		}
		c.process(i)
	}
	c.converged = true
	c.flushObs()
	return true
}

// flushObs publishes this Converge's route-evaluation delta to the obs
// counters — one batch of atomic adds per convergence, nothing per
// event. It is the one flush point the hotatomic lint rule sanctions
// inside the Converge call tree, so every counter (including the
// divergence bail-out) reports from here.
func (c *Computation) flushObs() {
	obsConvergeCalls.Inc()
	if !c.converged {
		obsConvergeDiverged.Inc()
	}
	if d := c.nProcessed - c.flushedProcessed; d > 0 {
		obsConvergeEvents.Add(int64(d))
		c.flushedProcessed = c.nProcessed
	}
	if d := c.nChanges - c.flushedChanges; d > 0 {
		obsConvergeChanges.Add(int64(d))
		c.flushedChanges = c.nChanges
	}
	// Path-tree and COW counters accumulate in plain fields on the hot
	// path and publish here, once per Converge.
	if c.paths.hits > 0 {
		obsInternHits.Add(int64(c.paths.hits))
		c.paths.hits = 0
	}
	if c.paths.misses > 0 {
		obsInternMisses.Add(int64(c.paths.misses))
		c.paths.misses = 0
	}
	if c.rowClones > 0 {
		obsRowClones.Add(int64(c.rowClones))
		c.rowClones = 0
	}
	if c.nAdj > 0 {
		obsConvergeAdj.Add(int64(c.nAdj))
		obsConvergeAdverts.Add(int64(c.nAdverts))
		c.nAdj, c.nAdverts = 0, 0
	}
}

// Converged reports whether the last Converge reached a fixed point.
func (c *Computation) Converged() bool { return c.converged }

// pathOf materialises the public form of a path of this computation.
func (c *Computation) pathOf(id uint32) asn.Path {
	if p, ok := c.pathCache[id]; ok {
		return p
	}
	p := c.paths.path(id)
	if !c.frozen {
		if c.pathCache == nil {
			c.pathCache = make(map[uint32]asn.Path)
		}
		c.pathCache[id] = p
	}
	return p
}

// public materialises a record of this computation.
func (c *Computation) public(r *rec) Route {
	return c.e.route(c.prefix, r, c.pathOf(r.path))
}

// Best returns the installed best route at an AS.
func (c *Computation) Best(a asn.ASN) (Route, bool) {
	i, ok := c.idx(a)
	if !ok || c.best[i].path == 0 {
		return Route{}, false
	}
	return c.public(&c.best[i]), true
}

// Step returns the decision step that selects the AS's current best
// route over its runner-up, computed from the current adj-RIB-in.
func (c *Computation) Step(a asn.ASN) (DecisionStep, bool) {
	i, ok := c.idx(a)
	if !ok || c.best[i].path == 0 {
		return OnlyRoute, false
	}
	nb, second := c.bestTwo(i)
	if nb.path == 0 {
		return OnlyRoute, false
	}
	if second.path == 0 {
		return OnlyRoute, true
	}
	return decisiveStep(&nb, &second), true
}

// bestTwo scans AS i's candidates — its own origin route, then its
// adj-RIB-in row — for the two most preferred (path 0 = none).
// Closure-free so a steady-state rescan stays allocation-free (the
// alloc guards in alloc_test.go pin this).
func (c *Computation) bestTwo(i int32) (nb, second rec) {
	if len(c.origin) > 0 {
		nb = c.origin[i]
	}
	row := c.adjIn[i]
	for k := range row {
		r := &row[k]
		switch {
		case r.path == 0:
		case nb.path == 0 || prefer(r, &nb):
			second = nb
			nb = *r
		case second.path == 0 || prefer(r, &second):
			second = *r
		}
	}
	return nb, second
}

// Alternatives returns every candidate route an AS currently holds in its
// adj-RIB-in (plus its own origin route if it announces), sorted most
// preferred first. The slice is freshly allocated.
func (c *Computation) Alternatives(a asn.ASN) []Route {
	i, ok := c.idx(a)
	if !ok {
		return nil
	}
	var cands []rec
	if r, ok := c.origin[i]; ok {
		cands = append(cands, r)
	}
	for _, r := range c.adjIn[i] {
		if r.path != 0 {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	slices.SortFunc(cands, func(x, y rec) int {
		switch {
		case prefer(&x, &y):
			return -1
		case prefer(&y, &x):
			return 1
		default:
			return 0
		}
	})
	out := make([]Route, len(cands))
	for k := range cands {
		out[k] = c.public(&cands[k])
	}
	return out
}

// Routes copies the current best route of every AS holding one.
func (c *Computation) Routes() map[asn.ASN]Route {
	out := make(map[asn.ASN]Route, len(c.best))
	for i := range c.best {
		if r := &c.best[i]; r.path != 0 {
			out[c.e.asns[i]] = c.public(r)
		}
	}
	return out
}

// prefer reports whether a beats b in the BGP decision process.
// Candidates carry precomputed path lengths and IGP costs.
func prefer(a, b *rec) bool {
	if a.lp != b.lp {
		return a.lp > b.lp
	}
	if a.plen != b.plen {
		return a.plen < b.plen
	}
	if a.igp != b.igp {
		return a.igp < b.igp
	}
	if a.age != b.age {
		return a.age < b.age
	}
	return a.nh < b.nh
}

// decisiveStep reports which decision criterion separated best from the
// runner-up.
func decisiveStep(best, second *rec) DecisionStep {
	switch {
	case best.lp != second.lp:
		return ByLocalPref
	case best.plen != second.plen:
		return ByPathLen
	case best.igp != second.igp:
		return ByIGPCost
	case best.age != second.age:
		return ByAge
	default:
		return ByRouterID
	}
}

// reselect fully rescans AS i's candidates and updates the best route.
// It reports whether the best route changed (a re-installation of the
// same route, with a new age, counts).
func (c *Computation) reselect(i int32) bool {
	nb, _ := c.bestTwo(i)
	changed := c.best[i] != nb
	c.best[i] = nb
	return changed
}

// deliver installs an advertisement (or withdrawal, the zero record)
// from neighbor slot s into AS i's adj-RIB-in and incrementally updates
// i's best route. It reports whether i's best changed. Rows still shared
// with a frozen fork parent are cloned before their first write (the
// copy-on-write barrier — the no-op cases above it read shared state
// without ever cloning).
func (c *Computation) deliver(i int32, s int32, adv rec) bool {
	row := c.adjIn[i]
	var prev rec
	if int(s) < len(row) {
		prev = row[s]
	}
	if prev.path == 0 && adv.path == 0 {
		return false
	}
	if prev.path != 0 && adv.path != 0 && sameRoute(&prev, &adv) {
		return false // implicit refresh: keep the older installation
	}
	shared := c.sharedRow != nil && c.sharedRow[i]
	if need := c.rowLen(i); shared || len(row) < need {
		// A row borrowed from a frozen parent, or one narrower than an
		// AddPeering slot demands: move it, at full width, into this
		// computation's arena.
		nr := c.rows.take(need)
		clear(nr[copy(nr, row):])
		if shared {
			c.sharedRow[i] = false
			c.rowClones++
		}
		row = nr
		c.adjIn[i] = nr
	}
	row[s] = adv
	cur := &c.best[i]
	switch {
	case prev.path != 0 && cur.age == prev.age:
		// The best route's source changed or withdrew (ages are unique
		// per installation, and an origin route's is 0): full rescan.
		return c.reselect(i)
	case adv.path != 0 && (cur.path == 0 || prefer(&adv, cur)):
		// Strictly better than the incumbent: install directly.
		*cur = adv
		return true
	default:
		// A non-best candidate changed; the incumbent stands.
		return false
	}
}

// sender is the state process shares across one AS's adjacencies.
type sender struct {
	i    int32
	best rec
	// adv is the path the AS advertises — its best path with itself
	// prepended, the same toward every neighbor — looked up in the tree
	// on first use (0 = not yet).
	adv uint32
}

// process recomputes what AS i advertises to each neighbor (base
// adjacencies, then what-if peerings) and delivers the changes,
// enqueueing neighbors whose best routes moved.
func (c *Computation) process(i int32) {
	c.nProcessed++
	if c.force[i] {
		c.force[i] = false
		c.reselect(i)
	}
	e := c.e
	s := sender{i: i, best: c.best[i]}
	// A peer or provider route goes to customers and siblings only. While
	// no other neighbor holds anything from i (upSent), there is nothing
	// to derive for them and nothing to withdraw: the adjacency would
	// stamp no clock and change no slot, so it is stepped over without
	// touching the neighbor's row.
	denied := s.best.path != 0 && !exports(s.best.org, topology.RelPeer)
	skip := denied && !c.upSent[i]
	c.nAdj += e.degree(i)
	for k := e.off[i]; k < e.off[i+1]; k++ {
		st := c.adjSt[k]
		if skip && !exports(s.best.org, st.rel) {
			continue
		}
		a := &e.adj[k]
		c.nAdverts++
		c.propagate(&s, a.peer, a.back, st, a.link)
	}
	if !skip {
		c.upSent[i] = s.best.path != 0 && !denied
	}
	if c.ov != nil {
		// Added peerings are few and never skipped.
		c.nAdj += len(c.ov.extra[i])
		c.nAdverts += len(c.ov.extra[i])
		for _, ex := range c.ov.extra[i] {
			c.propagate(&s, ex.peer, ex.back, ex.st, ex.link)
		}
	}
}

// propagate recomputes what the sender advertises across one adjacency
// (landing in slot back of AS j's row) and delivers the change. A link
// down in the what-if overlay advertises nothing — the withdrawal case
// of deliver.
func (c *Computation) propagate(s *sender, j, back int32, st adjState, l *topology.Link) {
	var adv rec
	if c.ov == nil || !c.ov.failed[l.Key()] {
		adv = c.advertisement(s, j, st)
	}
	if adv.path != 0 {
		// Suppress no-op refreshes before stamping a fresh age — the
		// common steady-state case.
		if row := c.adjIn[j]; int(back) < len(row) && row[back].path != 0 && sameRoute(&row[back], &adv) {
			return
		}
		c.clock++
		adv.age = c.clock
	}
	if c.deliver(j, back, adv) {
		c.nChanges++
		c.enqueue(j)
	}
}

// advertisement builds the record AS j would install upon hearing the
// sender's best route across an adjacency in state st, or the zero
// record when export policy, origin policy, loop prevention, or AS_SET
// filtering suppresses it. Everything it reads is a dense array or a
// path-tree node: no map probe, no allocation once the advertised path
// is in the tree.
func (c *Computation) advertisement(s *sender, j int32, st adjState) rec {
	best := &s.best
	if best.path == 0 || !exports(best.org, st.rel) {
		return rec{}
	}
	e := c.e
	n := e.asns[j]
	if best.nh < 0 {
		x := e.asns[s.i]
		if ann := c.anns[x]; !ann.permitsNeighbor(n) || !e.topo.AS(x).MayAnnounce(c.prefix, n) {
			return rec{}
		}
	}
	switch {
	case s.adv != 0:
		// Derived for an earlier neighbor of this event: a derivation
		// that built nothing, like a tree hit.
		c.paths.hits++
	case best.nh < 0:
		s.adv = best.path
	default:
		s.adv = c.extend(best.path, s.i)
	}
	path := c.paths.node(s.adv)
	pol := e.pol[j]
	if pol.flags&polNoLoopPrevention == 0 && c.paths.contains(s.adv, n) {
		return rec{}
	}
	if path.flags&pathHasSet != 0 && pol.flags&polFiltersASSets != 0 {
		return rec{}
	}
	// The route's organizational class survives sibling hops; on-net
	// (sibling-learned) routes get the organization's internal-first
	// preference bump.
	from := st.rel.Invert()
	org := from
	if from == topology.RelSibling {
		org = best.org
	}
	lp := c.localPref(pol, org, path)
	if from == topology.RelSibling {
		lp += lpSiblingBonus
	}
	if c.ov != nil {
		// A what-if LocalPref override on the receiving adjacency wins
		// over every policy bonus.
		if v, ok := c.ov.lp[[2]asn.ASN{n, e.asns[s.i]}]; ok {
			lp = v
		}
	}
	return rec{path: s.adv, nh: s.i, lp: lp, igp: st.igp, plen: path.plen, city: st.city, from: from, org: org}
}

// sameRoute compares two records of one computation on everything but
// Age (and the cached decision inputs, which the rest determines). Equal
// paths are one node within a fork chain, so the ids compare.
func sameRoute(a, b *rec) bool { return a.path == b.path && sameAttrs(a, b) }

// sameAttrs is sameRoute without the path, for records whose path ids
// come from different trees.
func sameAttrs(a, b *rec) bool {
	return a.nh == b.nh && a.lp == b.lp && a.from == b.from && a.org == b.org && a.city == b.city
}
