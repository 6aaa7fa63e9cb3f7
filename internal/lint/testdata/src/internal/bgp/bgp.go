// Package bgp is the hotatomic fixture for the Converge call tree: the
// analyzer walks the static call graph from Computation.Converge and
// flags per-event instrumentation everywhere except flushObs.
package bgp

import (
	"sync/atomic"

	"routelab/internal/obs"
)

var (
	events   = obs.Default().Counter("bgp.fixture.events")
	poolHits = obs.Default().Counter("bgp.fixture.pool_hits")
)

// Computation mirrors the real engine's shape: an event loop whose
// helpers must stay free of per-event instrumentation.
type Computation struct {
	n       int64
	pending int
	pool    pathPool
}

// pathPool mirrors the intern pool: a helper type whose methods run once
// per event. Counters accumulate in plain fields (legal) and flush once
// per Converge from flushObs; a per-intern obs bump is flagged even
// though it sits on a different receiver than Computation — the hot set
// is the call graph, not one type's methods.
type pathPool struct {
	hits int64
}

func (p *pathPool) intern() {
	p.hits++       // plain field accumulation: the sanctioned pattern
	poolHits.Inc() //lint:want hotatomic
}

// Converge drains the event queue — the hot-path root.
func (c *Computation) Converge() bool {
	for c.pending > 0 {
		c.process()
	}
	c.flushObs()
	return true
}

func (c *Computation) process() {
	events.Inc() //lint:want hotatomic
	c.bump()
	c.allowed()
	c.pool.intern()
	c.pending--
}

// bump is reachable from Converge through process: still hot.
func (c *Computation) bump() {
	atomic.AddInt64(&c.n, 1) //lint:want hotatomic
}

// allowed demonstrates suppression inside the hot set.
func (c *Computation) allowed() {
	//lint:allow hotatomic fixture demonstrates suppression on the hot path
	events.Inc()
}

// flushObs is the sanctioned once-per-Converge flush point: excluded
// from the traversal, so these obs calls — including the pool-counter
// flush — are legal.
func (c *Computation) flushObs() {
	events.Add(c.n)
	poolHits.Add(c.pool.hits)
	c.pool.hits = 0
}

// Announce is per-call API, not reachable from Converge: its counter
// bump is legal.
func (c *Computation) Announce() {
	events.Inc()
}
