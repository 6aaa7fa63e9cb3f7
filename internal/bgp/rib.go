package bgp

import (
	"slices"
	"sort"
	"sync"

	"routelab/internal/asn"
	"routelab/internal/obs"
	"routelab/internal/parallel"
)

// RIB holds converged best routes for a set of prefixes — the global
// routing state the data plane forwards on. It is columnar: per prefix,
// one record per AS (by the engine's dense index) plus the few path
// nodes those records reach; public Routes are materialised on read.
// Immutable once computed; concurrent readers are safe.
type RIB struct {
	e    *Engine
	cols map[asn.Prefix]*column
	// byLen groups the covered prefixes by descending mask length for
	// longest-prefix matching.
	byLen []asn.Prefix
	// lens are the distinct mask lengths present, descending, so Lookup
	// probes one map key per length instead of scanning every prefix.
	lens []uint8
}

// column is one prefix's converged state: best[i] is AS i's best route
// (path 0 = none), its path an id in paths.
type column struct {
	best  []rec
	paths pathTree
}

// converge settles the default announcement of p (its topology origin
// announcing to everyone) on c, or on a new computation when c is nil.
func (e *Engine) converge(c *Computation, p asn.Prefix) *Computation {
	origin := e.topo.OriginOf(p)
	if origin.IsZero() {
		return nil
	}
	if c == nil {
		c = e.NewComputation(p)
	} else {
		c.reset(p)
	}
	c.Announce(Announcement{Origin: origin})
	c.Converge()
	return c
}

// ComputePrefix converges the default announcement of a single prefix
// and returns every AS's best route.
func (e *Engine) ComputePrefix(p asn.Prefix) map[asn.ASN]Route {
	c := e.converge(nil, p)
	if c == nil {
		return nil
	}
	return c.Routes()
}

// ComputeRIB converges every given prefix and assembles the global RIB.
// Per-prefix computations run concurrently (each one is single-threaded
// and deterministic; the engine and topology are read-only), and results
// are merged at the barrier in input-prefix order, so the RIB is
// byte-identical for any worker count. workers <= 0 selects GOMAXPROCS.
func (e *Engine) ComputeRIB(prefixes []asn.Prefix, workers int) *RIB {
	rib := &RIB{e: e, cols: make(map[asn.Prefix]*column, len(prefixes))}
	// Each worker converges prefix after prefix on one recycled
	// computation (reset restores exactly the NewComputation state, so
	// which one a prefix lands on cannot show) and keeps only the column.
	var scratch sync.Pool
	perPrefix := parallel.MapStage("bgp/compute-rib", prefixes, workers,
		func(_ int, p asn.Prefix) *column {
			c, _ := scratch.Get().(*Computation)
			if c = e.converge(c, p); c == nil {
				return nil
			}
			col := c.column()
			scratch.Put(c)
			return col
		})
	routes := 0
	for i, p := range prefixes {
		rib.cols[p] = perPrefix[i]
		routes += perPrefix[i].routes()
	}
	rib.indexPrefixes()
	obs.Add("bgp.rib.prefixes", int64(len(prefixes)))
	obs.Add("bgp.rib.routes", int64(routes))
	return rib
}

// column copies out what the RIB keeps of a converged computation.
func (c *Computation) column() *column {
	col := &column{best: slices.Clone(c.best)}
	col.paths = c.paths.compact(col.best, &c.compacting)
	return col
}

// routes counts the ASes holding a route in the column (nil: none).
func (col *column) routes() int {
	if col == nil {
		return 0
	}
	n := 0
	for i := range col.best {
		if col.best[i].path != 0 {
			n++
		}
	}
	return n
}

// ComputeFullRIB converges every prefix the topology originates.
func (e *Engine) ComputeFullRIB(workers int) *RIB {
	return e.ComputeRIB(e.topo.OriginatedPrefixes(), workers)
}

func (r *RIB) indexPrefixes() {
	// Collect into a local, sort, then publish: the index must never
	// reflect map iteration order (maporder), even transiently.
	byLen := r.byLen[:0]
	for p := range r.cols {
		byLen = append(byLen, p)
	}
	sort.Slice(byLen, func(i, j int) bool {
		if byLen[i].Len != byLen[j].Len {
			return byLen[i].Len > byLen[j].Len
		}
		return byLen[i].Addr < byLen[j].Addr
	})
	r.byLen = byLen
	r.lens = r.lens[:0]
	for _, p := range r.byLen {
		if len(r.lens) == 0 || r.lens[len(r.lens)-1] != p.Len {
			r.lens = append(r.lens, p.Len)
		}
	}
}

// Prefixes returns the covered prefixes, longest mask first.
func (r *RIB) Prefixes() []asn.Prefix { return r.byLen }

// held returns the column and record of AS i's route for an exact
// prefix, or nil when it holds none.
func (r *RIB) held(i int32, p asn.Prefix) (*column, *rec) {
	col := r.cols[p]
	if col == nil || col.best[i].path == 0 {
		return nil, nil
	}
	return col, &col.best[i]
}

// routeAt materialises AS i's route for an exact prefix.
func (r *RIB) routeAt(i int32, p asn.Prefix) (Route, bool) {
	col, rc := r.held(i, p)
	if rc == nil {
		return Route{}, false
	}
	return r.e.route(p, rc, col.paths.path(rc.path)), true
}

// Route returns a's best route for an exact prefix.
func (r *RIB) Route(a asn.ASN, p asn.Prefix) (Route, bool) {
	if i, ok := r.e.index[a]; ok {
		return r.routeAt(i, p)
	}
	return Route{}, false
}

// Lookup longest-prefix-matches ip in a's routes: one map probe per
// distinct mask length, longest first.
func (r *RIB) Lookup(a asn.ASN, ip asn.Addr) (Route, bool) {
	if i, ok := r.e.index[a]; ok {
		for _, l := range r.lens {
			if rt, ok := r.routeAt(i, asn.NewPrefix(ip, l)); ok {
				return rt, true
			}
		}
	}
	return Route{}, false
}

// ASPath returns the AS-level forwarding path from a toward the exact
// prefix p, starting with a and ending at the origin, or nil when a has
// no route. It reads the path straight out of the column: one
// allocation, no Route in between.
func (r *RIB) ASPath(a asn.ASN, p asn.Prefix) []asn.ASN {
	i, ok := r.e.index[a]
	if !ok {
		return nil
	}
	col, rc := r.held(i, p)
	if rc == nil {
		return nil
	}
	path := make([]asn.ASN, 1, 1+int(rc.plen))
	path[0] = a
	return col.paths.appendSequence(path, rc.path)
}
