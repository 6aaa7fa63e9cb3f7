package bgp

import (
	"maps"
	"slices"

	"routelab/internal/asn"
	"routelab/internal/obs"
)

// Fork/Freeze obs handles. Fork is per-campaign API (never on the
// Converge hot path), so direct counter bumps are fine here.
var (
	obsForkCalls    = obs.Default().Counter("bgp.fork.calls")
	obsForkRecycled = obs.Default().Counter("bgp.fork.recycled")
)

// Prefix returns the prefix this computation routes.
func (c *Computation) Prefix() asn.Prefix { return c.prefix }

// Freeze marks the computation immutable: Announce and Withdraw panic
// from now on, and the state may be shared read-only — which is what
// Fork relies on. Freezing is idempotent and safe to invoke (and
// observe) from multiple goroutines; it cannot be undone.
//
// Converge stays callable (on a frozen computation the queue is
// normally empty, so it is a no-op flush), but like every Computation
// method it must not run concurrently with other calls on the SAME
// computation. Forks of a frozen computation are independent and may be
// taken and driven from different goroutines concurrently.
func (c *Computation) Freeze() { c.frozen.Store(true) }

// Frozen reports whether Freeze (or Fork) has been called.
func (c *Computation) Frozen() bool { return c.frozen.Load() }

// sealed names the state in which a computation refuses its mutators.
func (c *Computation) sealed() string {
	if c.released {
		return "released Computation (its storage went back to the engine)"
	}
	return "frozen Computation (it has live forks; mutate a Fork instead)"
}

// Fork freezes the computation and returns a copy-on-write child that
// continues from the exact current state — same announcements, same
// adj-RIB-ins, same best routes, same event clock, so a mutated fork is
// indistinguishable from a from-scratch computation that replayed the
// parent's history plus the new events (the differential suite in
// forkdiff_test.go pins exactly that).
//
// The fork is cheap: O(#ASes) copies, into the storage of a fork of this
// engine that was Released when there is one (a dozen allocations
// otherwise). Per-AS adj-RIB-in rows are shared with the parent and
// cloned lazily on first write; the best column (records by value) is
// copied. The child gets its own, empty segment of the AS-path tree
// chained onto the parent's (see paths.go), and shares the parent's
// per-prefix adjacency state.
//
// Any number of forks may be taken from one frozen parent, concurrently,
// and each fork is single-owner mutable state like any Computation.
// Forks never un-freeze the parent: a campaign keeps the converged base
// around and forks it once per variant.
func (c *Computation) Fork() *Computation {
	if c.released {
		panic("bgp: Fork of a released Computation")
	}
	c.Freeze()
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
		converged:     c.converged,
		ov:            c.ov.clone(),
	}
	for i := range f.sharedRow {
		f.sharedRow[i] = true
	}
	// Pending events (a fork of a not-yet-converged computation) carry
	// over so the child converges exactly as the parent would have.
	f.q.next = append(st.next[:0], c.q.next...)
	f.q.queued = append(st.queued[:0], c.q.queued...)
	obsForkCalls.Inc()
	if recycled {
		obsForkRecycled.Inc()
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
// and Fork panic by name, reads find nothing to index.
func (c *Computation) Release() {
	if c.frozen.Load() {
		panic("bgp: Release of a frozen Computation (it may have live forks)")
	}
	if c.released {
		panic("bgp: Release of a released Computation")
	}
	st := &forkStorage{
		anns: c.anns, origin: c.origin, adjIn: c.adjIn, sharedRow: c.sharedRow,
		best: c.best, force: c.force, upSent: c.upSent, next: c.q.next, queued: c.q.queued,
		slab: c.rows.slab, paths: c.paths, pathCache: c.pathCache,
	}
	clear(st.anns)
	clear(st.origin)
	clear(st.pathCache)
	c.released = true
	c.frozen.Store(true)
	c.anns, c.origin, c.adjIn, c.sharedRow, c.best, c.force, c.upSent = nil, nil, nil, nil, nil, nil, nil
	c.q, c.rows, c.paths, c.pathCache, c.adjSt, c.ov = eventQueue{}, rowArena{}, pathTree{}, nil, nil, nil
	c.e.forks.Put(st)
}
