// Package relgraph holds an AS-relationship graph — the data structure
// CAIDA-style inference produces and the Gao–Rexford model computation
// consumes. Unlike topology.Topology (the ground truth, with geography,
// policies, and addresses), a Graph is only "who connects to whom and in
// what business role", possibly wrong and possibly incomplete, exactly
// like the serial files the paper downloads.
//
// Layout (DESIGN.md §12, analysis-plane layout): every AS gets a dense
// index in the order Set first mentions it, and one adjacency row kept
// sorted by neighbour ASN. A graph is built once (a few thousand Set
// calls) and then only read, so Set pays the ordered insert and every
// reader gets an index lookup, a binary search, or an allocation-free
// walk over a row.
//
// Concurrency: rows are written only by Set, before the graph is
// shared; afterwards any number of goroutines may read it.
package relgraph

import (
	"slices"

	"routelab/internal/asn"
	"routelab/internal/topology"
)

// Edge is one relationship assertion: B's role as seen from A.
type Edge struct {
	A, B asn.ASN
	Role topology.Rel // B's role from A's perspective
}

// Adj is one entry of an adjacency row: a neighbour, its dense index,
// and its role from the perspective of the AS that owns the row.
type Adj struct {
	ASN   asn.ASN
	Index int32
	Role  topology.Rel
}

// Graph is a relationship graph. The zero value is not usable; call New.
type Graph struct {
	// index assigns dense indices in order of first mention by Set, so a
	// builder that calls Set in a deterministic order gets the same
	// indices every run (results over the index — gaorexford's rows —
	// are then laid out identically, not merely equal per AS).
	index map[asn.ASN]int32
	asns  []asn.ASN // dense index → ASN
	rows  [][]Adj   // dense index → neighbours, ascending by ASN
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: make(map[asn.ASN]int32)}
}

// Set records b's role from a's perspective (and the inverse for b),
// overwriting any previous assertion for the pair.
func (g *Graph) Set(a, b asn.ASN, roleOfB topology.Rel) {
	ia, ib := g.intern(a), g.intern(b)
	g.put(ia, Adj{ASN: b, Index: ib, Role: roleOfB})
	g.put(ib, Adj{ASN: a, Index: ia, Role: roleOfB.Invert()})
}

func (g *Graph) intern(a asn.ASN) int32 {
	i, ok := g.index[a]
	if !ok {
		i = int32(len(g.asns))
		g.index[a] = i
		g.asns = append(g.asns, a)
		g.rows = append(g.rows, nil)
	}
	return i
}

// put stores e in row i at its sorted position, replacing the entry for
// the same neighbour if there is one.
func (g *Graph) put(i int32, e Adj) {
	k, found := find(g.rows[i], e.ASN)
	if found {
		g.rows[i][k] = e
		return
	}
	g.rows[i] = slices.Insert(g.rows[i], k, e)
}

// find binary-searches a row for neighbour b: its position, or the
// position it would be inserted at.
func find(row []Adj, b asn.ASN) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row[m].ASN < b {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(row) && row[lo].ASN == b
}

// Index returns a's dense index, in [0, NumASes), or false when the
// graph does not mention a.
func (g *Graph) Index(a asn.ASN) (int32, bool) {
	i, ok := g.index[a]
	return i, ok
}

// ASN returns the AS holding dense index i.
func (g *Graph) ASN(i int32) asn.ASN { return g.asns[i] }

// NumASes counts the ASes the graph mentions: the size of the index
// space.
func (g *Graph) NumASes() int { return len(g.asns) }

// Row returns the adjacency row of the AS with dense index i, ascending
// by neighbour ASN. The slice is shared; callers must not modify it.
func (g *Graph) Row(i int32) []Adj { return g.rows[i] }

// Rel returns b's role from a's perspective, or RelNone when the graph
// has no such edge.
func (g *Graph) Rel(a, b asn.ASN) topology.Rel {
	i, ok := g.index[a]
	if !ok {
		return topology.RelNone
	}
	row := g.rows[i]
	if k, found := find(row, b); found {
		return row[k].Role
	}
	return topology.RelNone
}

// HasEdge reports whether the pair is adjacent in the graph.
func (g *Graph) HasEdge(a, b asn.ASN) bool { return g.Rel(a, b) != topology.RelNone }

// Neighbors returns a's neighbors in ascending order (never nil). It
// copies; code on a hot path walks Row instead.
func (g *Graph) Neighbors(a asn.ASN) []asn.ASN {
	var row []Adj
	if i, ok := g.index[a]; ok {
		row = g.rows[i]
	}
	out := make([]asn.ASN, len(row))
	for k, e := range row {
		out[k] = e.ASN
	}
	return out
}

// ASNs returns every AS appearing in the graph, ascending.
func (g *Graph) ASNs() []asn.ASN {
	out := slices.Clone(g.asns)
	slices.Sort(out)
	return out
}

// Edges returns every edge once (A < B), sorted.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, a := range g.ASNs() {
		for _, e := range g.rows[g.index[a]] {
			if a < e.ASN {
				out = append(out, Edge{A: a, B: e.ASN, Role: e.Role})
			}
		}
	}
	return out
}

// NumEdges counts distinct adjacencies.
func (g *Graph) NumEdges() int {
	n := 0
	for i, row := range g.rows {
		for _, e := range row {
			if g.asns[i] < e.ASN {
				n++
			}
		}
	}
	return n
}

// FromTopology builds the ground-truth relationship graph (base roles
// only — hybrid and partial-transit subtleties are invisible at this
// granularity, just as they are to CAIDA). Useful as an oracle in tests
// and for measuring inference accuracy. It walks the ASes in ascending
// order, not the topology's link map, so the indices repeat.
func FromTopology(t *topology.Topology) *Graph {
	g := New()
	for _, a := range t.ASNs() {
		for _, n := range t.Neighbors(a) {
			if a < n.ASN {
				g.Set(a, n.ASN, n.Link.HiRole)
			}
		}
	}
	return g
}
