package bgp

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"routelab/internal/asn"
	"routelab/internal/geo"
	"routelab/internal/obs"
	"routelab/internal/parallel"
)

// Readers names who will read a RIB, which is all a RIB keeps: the row
// of every collector AS (each prefix, as a BGP feed sees routing) and
// the column of every data-plane prefix (each AS, as a packet toward it
// does). Listing every prefix as a data-plane prefix keeps everything.
type Readers struct {
	Collectors []asn.ASN
	DataPlane  []asn.Prefix
}

// RIB holds converged best routes for a set of prefixes — the global
// routing state the data plane forwards on — as far as its Readers
// reach. It is columnar: per prefix, one record per AS (by the engine's
// dense index), or per collector AS only when the prefix is no
// data-plane prefix, plus the few path nodes those records reach; public
// Routes are materialised on read. A read of a route that was converged
// but not retained panics: the RIB never answers "no route" for one it
// dropped. Immutable once computed; concurrent readers are safe.
type RIB struct {
	e    *Engine
	cols map[asn.Prefix]*column
	// slot[i] is where a thin column keeps collector AS i's record (the
	// collectors in index order), -1 for an AS that is no collector.
	slot []int32
	// byLen groups the covered prefixes by descending mask length for
	// longest-prefix matching.
	byLen []asn.Prefix
	// lens are the distinct mask lengths present, descending, so Lookup
	// probes one map key per length instead of scanning every prefix.
	lens      []uint8
	unsettled []asn.Prefix // see Unsettled
}

// column is what the RIB keeps of one prefix's converged state. A whole
// column's best[i] is AS i's best route (path 0 = none), a thin one's
// best[k] that of the k-th collector (RIB.slot); paths holds the nodes they
// reach.
type column struct {
	best    []rec
	paths   pathTree
	whole   bool
	settled bool // the convergence's Outcome.Settled
	routes  int  // ASes holding a route, kept or not
}

// converge settles the default announcement of p (its topology origin
// announcing to everyone) on c, or on a new computation when c is nil.
func (e *Engine) converge(c *Computation, p asn.Prefix) (*Computation, Outcome) {
	origin := e.topo.OriginOf(p)
	if origin.IsZero() {
		return nil, Outcome{}
	}
	if c == nil {
		c = e.NewComputation(p)
	} else {
		c.reset(p)
	}
	c.Announce(Announcement{Origin: origin})
	return c, c.Converge()
}

// ComputePrefix converges the default announcement of a single prefix
// and returns every AS's best route.
func (e *Engine) ComputePrefix(p asn.Prefix) map[asn.ASN]Route {
	c, _ := e.converge(nil, p)
	if c == nil {
		return nil
	}
	return c.Routes()
}

// ComputeRIB converges every given prefix and assembles the global RIB
// its readers need. Per-prefix computations run concurrently (each one
// is single-threaded and deterministic; the engine and topology are
// read-only), and results are merged at the barrier in input-prefix
// order, so the RIB is byte-identical for any worker count. workers <= 0
// selects GOMAXPROCS. Its bgp/compute-rib stage and bgp.rib.* counters
// go to rec, the registry the engine was made with (it holds handles).
func (e *Engine) ComputeRIB(rec *obs.Registry, prefixes []asn.Prefix, readers Readers, workers int) *RIB {
	rib := &RIB{e: e, cols: make(map[asn.Prefix]*column, len(prefixes)), slot: make([]int32, len(e.asns))}
	var rows []int32
	for _, a := range readers.Collectors {
		if i, ok := e.index[a]; ok {
			rows = append(rows, i)
		}
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)
	for i := range rib.slot {
		rib.slot[i] = -1
	}
	for k, i := range rows {
		rib.slot[i] = int32(k)
	}
	whole := make(map[asn.Prefix]bool, len(readers.DataPlane))
	for _, p := range readers.DataPlane {
		whole[p] = true
	}
	// Each worker converges prefix after prefix on one recycled
	// computation (reset restores exactly the NewComputation state, so
	// which one a prefix lands on cannot show) and keeps only the column.
	var scratch sync.Pool
	perPrefix := parallel.MapStage(rec, "bgp/compute-rib", prefixes, workers,
		func(_ int, p asn.Prefix) *column {
			c, _ := scratch.Get().(*Computation)
			c, out := e.converge(c, p)
			if c == nil {
				return nil
			}
			col := c.column(whole[p], rows, out.Settled)
			scratch.Put(c)
			return col
		})
	routes, retained := 0, 0
	for i, p := range prefixes {
		col := perPrefix[i]
		rib.cols[p] = col
		if col != nil {
			routes += col.routes
			retained += countRoutes(col.best)
			if !col.settled {
				rib.unsettled = append(rib.unsettled, p)
			}
		}
	}
	rib.indexPrefixes()
	rec.Counter("bgp.rib.prefixes").Add(int64(len(prefixes)))
	rec.Counter("bgp.rib.unsettled").Add(int64(len(rib.unsettled)))
	rec.Counter("bgp.rib.routes").Add(int64(routes))
	rec.Counter("bgp.rib.retained").Add(int64(retained))
	return rib
}

// column copies out what the RIB keeps of a converged computation: the
// whole best column, or only the given rows of it.
func (c *Computation) column(whole bool, rows []int32, settled bool) *column {
	col := &column{whole: whole, settled: settled, routes: countRoutes(c.best)}
	if whole {
		col.best = slices.Clone(c.best)
	} else {
		col.best = make([]rec, len(rows))
		for k, i := range rows {
			col.best[k] = c.best[i]
		}
	}
	col.paths = c.paths.compact(col.best, &c.compacting)
	return col
}

// countRoutes counts the records that hold a route.
func countRoutes(recs []rec) int {
	n := 0
	for i := range recs {
		if recs[i].path != 0 {
			n++
		}
	}
	return n
}

// ComputeFullRIB converges every prefix the topology originates and
// keeps every route, recording as ComputeRIB does on rec.
func (e *Engine) ComputeFullRIB(rec *obs.Registry, workers int) *RIB {
	prefixes := e.topo.OriginatedPrefixes()
	return e.ComputeRIB(rec, prefixes, Readers{DataPlane: prefixes}, workers)
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

// Unsettled returns, in input order, the prefixes whose convergence
// stopped at the event cap: their routes froze mid-oscillation.
func (r *RIB) Unsettled() []asn.Prefix { return r.unsettled }

// Retains reports whether the RIB kept a's route for the exact prefix p
// — or the fact that it converged on none: whether Route and ASPath
// answer for the pair rather than panic. It is false for an AS or a
// prefix the RIB never covered, which those reads answer with "no route".
func (r *RIB) Retains(a asn.ASN, p asn.Prefix) bool {
	i, ok := r.e.index[a]
	col := r.cols[p]
	return ok && col != nil && (col.whole || r.slot[i] >= 0)
}

// held returns the column and record of AS i's route for an exact
// prefix, or nil when it holds none. Every read goes through here, so
// this is where one outside the RIB's Readers is caught: a longest-prefix
// match that reaches a thin column must not fall through to a shorter
// prefix as if the AS had converged on no route.
func (r *RIB) held(i int32, p asn.Prefix) (*column, *rec) {
	col := r.cols[p]
	if col == nil {
		return nil, nil
	}
	k := i
	if !col.whole {
		if k = r.slot[i]; k < 0 {
			panic(fmt.Sprintf("bgp: RIB read of %s's route for %s, which no declared reader retains", r.e.asns[i], p))
		}
	}
	if col.best[k].path == 0 {
		return nil, nil
	}
	return col, &col.best[k]
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

// match longest-prefix-matches ip in a's routes: one map probe per
// distinct mask length, longest first. rc is nil when nothing matches.
func (r *RIB) match(a asn.ASN, ip asn.Addr) (p asn.Prefix, col *column, rc *rec) {
	if i, ok := r.e.index[a]; ok {
		for _, l := range r.lens {
			p = asn.NewPrefix(ip, l)
			if col, rc = r.held(i, p); rc != nil {
				return p, col, rc
			}
		}
	}
	return asn.Prefix{}, nil, nil
}

// Lookup returns the longest-prefix match for ip among a's routes.
func (r *RIB) Lookup(a asn.ASN, ip asn.Addr) (Route, bool) {
	p, col, rc := r.match(a, ip)
	if rc == nil {
		return Route{}, false
	}
	return r.e.route(p, rc, col.paths.path(rc.path)), true
}

// Forward is Lookup for the data plane: the neighbor a hands a packet
// for ip to and the city it does so in — both 0 when a originates the
// route, as in Route — read straight from the record, no AS path
// materialised.
func (r *RIB) Forward(a asn.ASN, ip asn.Addr) (next asn.ASN, egress geo.CityID, ok bool) {
	_, _, rc := r.match(a, ip)
	if rc == nil {
		return 0, 0, false
	}
	if rc.nh >= 0 {
		next = r.e.asns[rc.nh]
	}
	return next, rc.city, true
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
