package bgp

import (
	"maps"
	"slices"

	"routelab/internal/asn"
	"routelab/internal/obs"
)

// Fork/Freeze obs handles. Fork is per-campaign API (never on the
// Converge hot path), so direct counter bumps are fine here.
var obsForkCalls = obs.Default().Counter("bgp.fork.calls")

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

// Fork freezes the computation and returns a copy-on-write child that
// continues from the exact current state — same announcements, same
// adj-RIB-ins, same best routes, same event clock, so a mutated fork is
// indistinguishable from a from-scratch computation that replayed the
// parent's history plus the new events (the differential suite in
// forkdiff_test.go pins exactly that).
//
// The fork is cheap: O(#ASes) copies and a dozen allocations. Per-AS
// adj-RIB-in rows are shared with the parent and cloned lazily on first
// write; the best column (records by value) is copied. The child gets
// its own, empty segment of the AS-path tree chained onto the parent's
// (see paths.go), and shares the parent's per-prefix adjacency state.
//
// Any number of forks may be taken from one frozen parent, concurrently,
// and each fork is single-owner mutable state like any Computation.
// Forks never un-freeze the parent: a campaign keeps the converged base
// around and forks it once per variant.
func (c *Computation) Fork() *Computation {
	c.Freeze()
	n := len(c.e.asns)
	f := &Computation{
		e:             c.e,
		prefix:        c.prefix,
		contentPrefix: c.contentPrefix,
		anns:          maps.Clone(c.anns),
		origin:        maps.Clone(c.origin),
		adjIn:         slices.Clone(c.adjIn),
		sharedRow:     make([]bool, n),
		best:          slices.Clone(c.best),
		rows:          rowArena{left: len(c.e.adj)},
		paths:         c.paths.fork(),
		adjSt:         c.adjSt,
		q:             c.q,
		force:         slices.Clone(c.force),
		clock:         c.clock,
		converged:     c.converged,
		ov:            c.ov.clone(),
	}
	for i := range f.sharedRow {
		f.sharedRow[i] = true
	}
	// Pending events (a fork of a not-yet-converged computation) carry
	// over so the child converges exactly as the parent would have.
	f.q.next = slices.Clone(c.q.next)
	f.q.queued = slices.Clone(c.q.queued)
	obsForkCalls.Inc()
	return f
}
