package bgp

import (
	"fmt"
	"maps"
	"slices"

	"routelab/internal/asn"
	"routelab/internal/topology"
)

// overlay holds a computation's what-if mutations of the sealed graph:
// links taken down, peerings added, and per-adjacency LocalPref
// overrides. Ordinary computations carry a nil overlay and pay nothing;
// the what-if engine (internal/whatif) creates one on the fork it
// mutates. Forks deep-clone the overlay, so a frozen what-if base can
// itself be forked further.
type overlay struct {
	// failed marks links that are down in this computation: process
	// advertises nothing across them and FailLink withdraws whatever was
	// installed when the failure was applied.
	failed map[topology.LinkKey]bool
	// links registers the added peerings by canonical key, so FailLink
	// can target them and AddPeering rejects duplicates.
	links map[topology.LinkKey]*topology.Link
	// extra[i] appends what-if adjacencies to AS i's base neighbor list.
	// The adj-RIB-in slot of extra[i][k] is AS i's degree + k; rows are
	// widened lazily by deliver on first write past the inherited width.
	extra map[int32][]extraAdj
	// lp overrides the local preference AS key[0] assigns to routes
	// learned from neighbor key[1], bypassing the policy computation.
	lp map[[2]asn.ASN]int32
}

// extraAdj is one direction of an added peering: the engine's adjacency
// plus the per-prefix state a base adjacency keeps in Computation.adjSt.
type extraAdj struct {
	adjacency
	st adjState
}

// clone deep-copies the overlay (nil stays nil) for Fork.
func (ov *overlay) clone() *overlay {
	if ov == nil {
		return nil
	}
	cp := &overlay{
		failed: maps.Clone(ov.failed),
		links:  maps.Clone(ov.links),
		lp:     maps.Clone(ov.lp),
		extra:  make(map[int32][]extraAdj, len(ov.extra)),
	}
	for i, xs := range ov.extra {
		cp.extra[i] = slices.Clone(xs)
	}
	return cp
}

func (c *Computation) ensureOverlay() *overlay {
	if c.ov == nil {
		c.ov = &overlay{
			failed: make(map[topology.LinkKey]bool),
			links:  make(map[topology.LinkKey]*topology.Link),
			extra:  make(map[int32][]extraAdj),
			lp:     make(map[[2]asn.ASN]int32),
		}
	}
	return c.ov
}

// rowLen is AS i's full adj-RIB-in width: base neighbors plus any
// what-if peerings added to this computation.
func (c *Computation) rowLen(i int32) int {
	n := c.e.degree(i)
	if c.ov != nil {
		n += len(c.ov.extra[i])
	}
	return n
}

// slotOf returns the adj-RIB-in slot of neighbor j inside AS i's row,
// searching base adjacencies first, then what-if peerings.
func (c *Computation) slotOf(i, j int32) (int32, bool) {
	e := c.e
	for s, a := range e.adj[e.off[i]:e.off[i+1]] {
		if a.peer == j {
			return int32(s), true
		}
	}
	if c.ov != nil {
		for k, ex := range c.ov.extra[i] {
			if ex.peer == j {
				return int32(e.degree(i) + k), true
			}
		}
	}
	return 0, false
}

// FailLink takes the adjacency between a and b down for this
// computation only: the routes currently installed across it are
// withdrawn immediately and process never advertises over it again.
// Call Converge to settle the reroute. Works on base topology links and
// on peerings previously added with AddPeering; failing an
// already-failed link is a no-op.
func (c *Computation) FailLink(a, b asn.ASN) error {
	if c.frozen {
		panic("bgp: FailLink on a " + c.sealed())
	}
	i, iok := c.idx(a)
	j, jok := c.idx(b)
	if !iok || !jok {
		return fmt.Errorf("bgp: FailLink(%s, %s): no such AS", a, b)
	}
	key := topology.MakeLinkKey(a, b)
	if c.e.topo.Link(a, b) == nil && (c.ov == nil || c.ov.links[key] == nil) {
		return fmt.Errorf("bgp: FailLink(%s, %s): not adjacent", a, b)
	}
	ov := c.ensureOverlay()
	if ov.failed[key] {
		return nil
	}
	ov.failed[key] = true
	c.dropAcross(i, j)
	c.dropAcross(j, i)
	return nil
}

// dropAcross withdraws the route AS i currently holds from neighbor j.
func (c *Computation) dropAcross(i, j int32) {
	s, ok := c.slotOf(i, j)
	if !ok {
		return
	}
	if c.deliver(i, s, rec{}) {
		c.nChanges++
		c.enqueue(i)
	}
}

// AddPeering attaches a candidate link to this computation only: both
// endpoints gain an extra adjacency and are forced to re-advertise, so
// the next Converge settles routing as if the peering had always
// existed. The sealed topology is never touched — build the candidate
// with topology.ProposeLink, which validates the endpoints against the
// sealed graph and canonicalizes the link.
func (c *Computation) AddPeering(l *topology.Link) error {
	if c.frozen {
		panic("bgp: AddPeering on a " + c.sealed())
	}
	if l == nil || l.Lo == l.Hi {
		return fmt.Errorf("bgp: AddPeering: bad candidate link")
	}
	i, iok := c.idx(l.Lo)
	j, jok := c.idx(l.Hi)
	if !iok || !jok {
		return fmt.Errorf("bgp: AddPeering(%s, %s): no such AS", l.Lo, l.Hi)
	}
	if c.e.topo.Link(l.Lo, l.Hi) != nil {
		return fmt.Errorf("bgp: AddPeering(%s, %s): already adjacent in the topology", l.Lo, l.Hi)
	}
	ov := c.ensureOverlay()
	if ov.links[l.Key()] != nil {
		return fmt.Errorf("bgp: AddPeering(%s, %s): already added", l.Lo, l.Hi)
	}
	ov.links[l.Key()] = l
	// Each side records where its advertisements land on the other: the
	// next free slot past the peer's current full width.
	slotOnLo := int32(c.rowLen(i))
	slotOnHi := int32(c.rowLen(j))
	pair := c.e.newLinkPair(l)
	lo, hi := c.e.linkState(&pair, c.prefix, c.e.prefixContinent(c.prefix))
	ov.extra[i] = append(ov.extra[i], extraAdj{adjacency{link: l, peer: j, back: slotOnHi}, lo})
	ov.extra[j] = append(ov.extra[j], extraAdj{adjacency{link: l, peer: i, back: slotOnLo}, hi})
	c.force[i] = true
	c.enqueue(i)
	c.force[j] = true
	c.enqueue(j)
	return nil
}

// SetLocalPref overrides the local preference AS at assigns to routes
// learned from neighbor from, for this computation only. The neighbor
// is forced to re-advertise, so the installed route is repriced through
// the normal delivery path and the next Converge settles any resulting
// best-path moves.
func (c *Computation) SetLocalPref(at, from asn.ASN, pref int) error {
	if c.frozen {
		panic("bgp: SetLocalPref on a " + c.sealed())
	}
	if int(int32(pref)) != pref {
		return fmt.Errorf("bgp: SetLocalPref(%s, %s): preference %d out of range", at, from, pref)
	}
	i, iok := c.idx(at)
	j, jok := c.idx(from)
	if !iok || !jok {
		return fmt.Errorf("bgp: SetLocalPref(%s, %s): no such AS", at, from)
	}
	if _, adj := c.slotOf(i, j); !adj {
		return fmt.Errorf("bgp: SetLocalPref(%s, %s): not adjacent", at, from)
	}
	c.ensureOverlay().lp[[2]asn.ASN{at, from}] = int32(pref)
	c.force[j] = true
	c.enqueue(j)
	return nil
}

// Counters reports the computation's cumulative process-event and
// best-route-change counts. Snapshotting them around an apply+Converge
// gives the reconvergence churn a what-if delta cost.
func (c *Computation) Counters() (events, changes int) {
	return c.nProcessed, c.nChanges
}

// BestChange records one AS whose installed best route differs between
// two computations of the same prefix.
type BestChange struct {
	AS asn.ASN
	// Before and After are public route copies; nil means no route on
	// that side.
	Before, After *Route
}

// BestDiff compares c's installed best routes against base and returns
// every AS whose routing decision differs, in ascending ASN order. Age
// is ignored — the diff reports decision changes, not re-installations.
// Within one fork chain an untouched route is the same record naming the
// same path node, so the common case is one struct compare; paths the
// two trees do not share compare element by element, which keeps the
// diff exact across independently built computations (the differential
// oracle in internal/whatif pins fork-diff ≡ rebuild-diff through
// exactly this path). Neither side is written to, so a base may be
// diffed against from many goroutines.
func (c *Computation) BestDiff(b *Base) []BestChange {
	base := b.c
	if c.e != base.e || c.prefix != base.prefix {
		panic("bgp: BestDiff across engines or prefixes")
	}
	shared := sharedBelow(&c.paths, &base.paths)
	var out []BestChange
	for i := range c.best {
		nb, ob := &c.best[i], &base.best[i]
		if nb.path == ob.path && nb.path < shared && *nb == *ob {
			continue
		}
		if nb.path != 0 && ob.path != 0 && sameAttrs(nb, ob) &&
			pathsEqual(&c.paths, nb.path, &base.paths, ob.path, shared) {
			continue
		}
		bc := BestChange{AS: c.e.asns[i]}
		if ob.path != 0 {
			r := c.e.route(c.prefix, ob, base.paths.path(ob.path))
			bc.Before = &r
		}
		if nb.path != 0 {
			r := c.e.route(c.prefix, nb, c.paths.path(nb.path))
			bc.After = &r
		}
		out = append(out, bc)
	}
	return out
}
