package bgp

import (
	"maps"
	"slices"
	"sync"

	"routelab/internal/asn"
)

// Base is a frozen computation: the read-only state every fork of it
// starts from. Its methods read and fork, nothing else, so whatever
// holds a Base — a memo map, a struct field, a closure — cannot reach
// Announce, Withdraw or a what-if edit of it through any number of
// calls. Any number of goroutines may use one Base at once.
type Base struct {
	c *Computation
	// text is every AS's installed route as a diff against the base
	// reports its Before side, rendered once (renderText).
	textOnce sync.Once
	text     baseText
}

// baseText is the route text of every AS of a base, in AS index order:
// one string, and per AS the offsets where its next hop and its path
// end. An AS's text begins where the previous one's path ends.
type baseText struct {
	all  string
	ends []int32
}

// renderText renders every AS's installed route once, as BestDiff
// against b reports the Before side of a change, so that BestDiff
// slices it instead of rendering the base's routes again per diff.
func (b *Base) renderText() {
	b.textOnce.Do(func() {
		c := b.c
		var buf []byte
		ends := make([]int32, 0, 2*len(c.best))
		for i := range c.best {
			r := &c.best[i]
			if r.path != 0 && r.nh >= 0 {
				buf = c.e.asns[r.nh].Append(buf)
			}
			ends = append(ends, int32(len(buf)))
			if r.path != 0 {
				buf = c.paths.appendText(buf, r.path)
			}
			ends = append(ends, int32(len(buf)))
		}
		b.text = baseText{all: string(buf), ends: ends}
	})
}

// routeText is AS i's installed route in b's text; the caller knows
// the AS holds one.
func (b *Base) routeText(i int) RouteText {
	b.renderText()
	t := &b.text
	from := int32(0)
	if i > 0 {
		from = t.ends[2*i-1]
	}
	return RouteText{Held: true, NextHop: t.all[from:t.ends[2*i]], Path: t.all[t.ends[2*i]:t.ends[2*i+1]], LocalPref: int(b.c.best[i].lp)}
}

// Freeze ends the computation's mutable life and returns it as a Base:
// its mutators (and reset and Release) panic from now on, and its state
// may be shared read-only, which is what forks rely on. The owner calls
// it once, before the Base is published to other goroutines; freezing
// again writes nothing and returns another handle on the same state.
//
// Converge stays callable on c (on a frozen computation the queue is
// normally empty, so it is a no-op flush), but like every Computation
// method it must not run concurrently with other calls on c.
func (c *Computation) Freeze() *Base {
	if c.released {
		panic("bgp: Freeze of a released Computation")
	}
	if !c.frozen {
		c.frozen = true
	}
	return &Base{c: c}
}

// FreezeForDiffs is Freeze for a base that what-if diffs will be taken
// against: it also renders every AS's installed route, once, as the
// Before side of a change, which BestDiff against the base otherwise
// renders on first use. The base's footprint is then final.
func (c *Computation) FreezeForDiffs() *Base {
	b := c.Freeze()
	b.renderText()
	return b
}

// Prefix returns the prefix the base routes.
func (b *Base) Prefix() asn.Prefix { return b.c.prefix }

// Best returns the installed best route at an AS.
func (b *Base) Best(a asn.ASN) (Route, bool) { return b.c.Best(a) }

// sealed names the state in which a computation refuses its mutators.
func (c *Computation) sealed() string {
	if c.released {
		return "released Computation (its storage went back to the engine)"
	}
	return "frozen Computation (it may have live forks; mutate a fork of its Base instead)"
}

// Fork returns a copy-on-write child that continues from the base's
// exact state — same announcements, same adj-RIB-ins, same best routes,
// same event clock, so a mutated fork is indistinguishable from a
// from-scratch computation that replayed the base's history plus the
// new events (the differential suite in forkdiff_test.go pins exactly
// that).
//
// The fork is cheap: O(#ASes) copies, into the storage of a fork of this
// engine that was Released when there is one (a dozen allocations
// otherwise). Per-AS adj-RIB-in rows are shared with the base and
// cloned lazily on first write; the best column (records by value) is
// copied. The child gets its own, empty segment of the AS-path tree
// chained onto the base's (see paths.go), and shares the base's
// per-prefix adjacency state.
//
// Any number of forks may be taken from one base, concurrently, and
// each fork is single-owner mutable state like any Computation: a
// campaign keeps the converged base around and forks it once per
// variant.
func (b *Base) Fork() *Computation {
	c := b.c
	e := c.e
	st, recycled := e.forks.Get().(*forkStorage)
	if !recycled {
		st = &forkStorage{anns: make(map[asn.ASN]Announcement), origin: make(map[int32]rec)}
	} else if st.slab == nil {
		// A poison rewrites every row, so storage that comes round again
		// carries room for a copy of each from then on.
		st.slab = make([]rec, len(e.adj))
	}
	maps.Copy(st.anns, c.anns)
	maps.Copy(st.origin, c.origin)
	f := &Computation{
		e:             e,
		prefix:        c.prefix,
		contentPrefix: c.contentPrefix,
		anns:          st.anns,
		origin:        st.origin,
		adjIn:         append(st.adjIn[:0], c.adjIn...),
		sharedRow:     slices.Grow(st.sharedRow[:0], len(e.asns))[:len(e.asns)],
		best:          append(st.best[:0], c.best...),
		rows:          rowArena{slab: st.slab, free: st.slab, left: len(e.adj)},
		paths:         c.paths.fork(st.paths),
		pathCache:     st.pathCache,
		adjSt:         c.adjSt,
		q:             c.q,
		force:         append(st.force[:0], c.force...),
		upSent:        append(st.upSent[:0], c.upSent...),
		clock:         c.clock,
		ov:            c.ov.clone(),
	}
	for i := range f.sharedRow {
		f.sharedRow[i] = true
	}
	// Pending events (a fork of a not-yet-converged computation) carry
	// over so the child converges exactly as the parent would have.
	f.q.next = append(st.next[:0], c.q.next...)
	f.q.queued = append(st.queued[:0], c.q.queued...)
	// Fork is per-campaign API (never on the Converge hot path), so
	// direct counter bumps are fine here.
	e.m.forkCalls.Inc()
	if recycled {
		e.m.forkRecycled.Inc()
	}
	return f
}

// forkStorage is what a released computation leaves for the next Fork of
// its engine: every slice and map a fork owns, contents stale. Fork
// overwrites or empties each before use; only the row slab is handed on
// as it is, and deliver clears what it does not overwrite of a row.
type forkStorage struct {
	anns      map[asn.ASN]Announcement
	origin    map[int32]rec
	adjIn     [][]rec
	sharedRow []bool
	best      []rec
	force     []bool
	upSent    []bool
	next      []int32
	queued    []bool
	slab      []rec
	paths     pathTree
	pathCache map[uint32]asn.Path
}

// Release ends the computation and hands its storage to the engine for
// the next Fork to build on — the fork-side twin of reset. The owner
// calls it once everything it wants of the computation has been read out
// (Best, Routes, BestDiff and the like return copies; nothing they
// returned is invalidated). Only a computation that was never frozen may
// be released: a frozen one may have live forks reading its rows and its
// path-tree segment. Afterwards the computation is unusable: mutators
// and Freeze panic by name, reads find nothing to index.
func (c *Computation) Release() {
	if c.released {
		panic("bgp: Release of a released Computation")
	}
	if c.frozen {
		panic("bgp: Release of a frozen Computation (it may have live forks)")
	}
	st := &forkStorage{
		anns: c.anns, origin: c.origin, adjIn: c.adjIn, sharedRow: c.sharedRow,
		best: c.best, force: c.force, upSent: c.upSent, next: c.q.next, queued: c.q.queued,
		slab: c.rows.slab, paths: c.paths, pathCache: c.pathCache,
	}
	clear(st.anns)
	clear(st.origin)
	clear(st.pathCache)
	c.released, c.frozen = true, true
	c.anns, c.origin, c.adjIn, c.sharedRow, c.best, c.force, c.upSent = nil, nil, nil, nil, nil, nil, nil
	c.q, c.rows, c.paths, c.pathCache, c.adjSt, c.ov = eventQueue{}, rowArena{}, pathTree{}, nil, nil, nil
	c.e.forks.Put(st)
}
