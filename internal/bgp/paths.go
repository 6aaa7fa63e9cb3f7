package bgp

import (
	"slices"

	"routelab/internal/asn"
)

// This file implements the AS-path tree (DESIGN.md §12). The engine
// never builds an asn.Path on its hot path: a path is a node in a
// parent-pointer tree, keyed (parent node, prepended AS), and a route
// record holds the node's id. Value-equal paths resolve to one node —
// within a fork chain path equality is an integer compare — and each
// node accumulates what the decision process asks of a path (length,
// AS_SET presence, research traversal, single home country), so loop
// prevention walks a handful of 16-byte nodes — and only when the
// path's membership mask cannot rule the AS out — and localPref reads
// bits.
//
// Ownership: a tree is a chain of segments, one per Computation of a
// fork chain. Each computation appends only to its own segment; the
// segments of its ancestors are immutable from the moment Freeze made
// them a Base, so any number of forks read them concurrently. Ids are
// global over the chain: a fork's own nodes start where its parent's
// ended.
// A RIB column keeps a compacted single-segment tree (no hash table)
// holding just the nodes its records reach.

// pnode is one path: the parent path with one element prepended.
type pnode struct {
	parent uint32
	// as is the prepended ASN, or for an AS_SET element the set's id.
	as uint32
	// plen is the BGP path length: one per sequence AS, one per AS_SET.
	// It saturates; nothing the event cap lets converge comes near.
	plen uint16
	// country is 1 + the dense home-country id every sequence AS on the
	// path shares, 0 once two differ.
	country uint16
	flags   uint8
}

const (
	nodeIsSet    uint8 = 1 << iota // this element is an AS_SET
	pathHasSet                     // some element of the path is
	pathResearch                   // some sequence AS is an R&E backbone
)

// pathTree is one segment of a path tree plus the chain below it.
type pathTree struct {
	parent *pathTree
	// base is the id of nodes[0]; ids below it belong to ancestors. The
	// root segment's nodes[0] is the empty path, id 0.
	base  uint32
	nodes []pnode
	// masks[k] is the membership filter of nodes[k]: one hashed bit per
	// AS and AS_SET member on the path (maskBit), its parent's OR-ed in.
	// Held beside the nodes because only a computation's tree asks
	// contains: a RIB column keeps none.
	masks []uint64
	// table is an open-addressing index over this segment's nodes:
	// 1 + position in nodes, 0 for an empty slot. Nil on RIB columns.
	table []uint32
	// sets holds this segment's AS_SET contents, sorted; set ids are
	// global over the chain like node ids.
	setBase uint32
	sets    [][]asn.ASN

	// hits/misses count child lookups; Computation.flushObs publishes
	// and zeroes them once per Converge.
	hits, misses int
}

// newPathTree returns a root segment sized for about n paths.
func newPathTree(n int) pathTree {
	size := 64
	for size < 4*n {
		size *= 2
	}
	return pathTree{nodes: make([]pnode, 1, 1+2*n), masks: make([]uint64, 1, 1+2*n), table: make([]uint32, size)}
}

// reset empties a root segment for reuse, keeping its storage.
func (t *pathTree) reset() {
	t.nodes = t.nodes[:1]
	t.masks = t.masks[:1]
	clear(t.table)
	t.sets = t.sets[:0]
	t.hits, t.misses = 0, 0
}

// fork returns an empty segment chained onto t, which must not grow
// afterwards, built on the storage of a finished segment (the zero
// value: none).
func (t *pathTree) fork(old pathTree) pathTree {
	clear(old.table)
	clear(old.sets)
	return pathTree{
		parent: t, base: t.base + uint32(len(t.nodes)), setBase: t.setBase + uint32(len(t.sets)),
		nodes: old.nodes[:0], masks: old.masks[:0], table: old.table, sets: old.sets[:0],
	}
}

// node resolves an id anywhere in the chain.
func (t *pathTree) node(id uint32) *pnode {
	for id < t.base {
		t = t.parent
	}
	return &t.nodes[id-t.base]
}

// mask resolves an id's membership filter like node resolves the node.
func (t *pathTree) mask(id uint32) uint64 {
	for id < t.base {
		t = t.parent
	}
	return t.masks[id-t.base]
}

// maskBit is a's bit in a membership filter.
func maskBit(a asn.ASN) uint64 { return 1 << (uint32(a) * 0x9e3779b1 >> 26) }

func (t *pathTree) set(id uint32) []asn.ASN {
	for id < t.setBase {
		t = t.parent
	}
	return t.sets[id-t.setBase]
}

func nodeKey(parent, as uint32, isSet bool) uint64 {
	k := uint64(parent)<<32 | uint64(as)
	if isSet {
		k = ^k
	}
	return k * 0x9e3779b97f4a7c15
}

// find probes every segment of the chain for the child of parent that
// prepends as, and returns its id or 0.
func (t *pathTree) find(parent, as uint32, isSet bool) uint32 {
	h := nodeKey(parent, as, isSet)
	for ; t != nil; t = t.parent {
		if len(t.table) == 0 {
			continue
		}
		mask := uint64(len(t.table) - 1)
		for s := h >> 32 & mask; t.table[s] != 0; s = (s + 1) & mask {
			n := &t.nodes[t.table[s]-1]
			if n.parent == parent && n.as == as && (n.flags&nodeIsSet != 0) == isSet {
				return t.base + t.table[s] - 1
			}
		}
	}
	return 0
}

// add appends a node, whose own element sets the bits own, to this
// segment and indexes it.
func (t *pathTree) add(n pnode, own uint64) uint32 {
	if 2*(len(t.nodes)+1) > len(t.table) {
		t.grow()
	}
	t.nodes = append(t.nodes, n)
	t.masks = append(t.masks, t.mask(n.parent)|own)
	t.index(uint32(len(t.nodes)))
	return t.base + uint32(len(t.nodes)) - 1
}

// index enters nodes[pos-1] into the table.
func (t *pathTree) index(pos uint32) {
	n := &t.nodes[pos-1]
	mask := uint64(len(t.table) - 1)
	s := nodeKey(n.parent, n.as, n.flags&nodeIsSet != 0) >> 32 & mask
	for t.table[s] != 0 {
		s = (s + 1) & mask
	}
	t.table[s] = pos
}

func (t *pathTree) grow() {
	t.table = make([]uint32, max(64, 2*len(t.table)))
	for pos := range t.nodes {
		if t.base == 0 && pos == 0 {
			continue // the empty path is nobody's child
		}
		t.index(uint32(pos) + 1)
	}
}

// child returns the path `parent` with sequence AS a prepended, creating
// it on first use. country is a's dense home-country id, research
// whether a is an R&E backbone.
func (t *pathTree) child(parent uint32, a asn.ASN, country uint16, research bool) uint32 {
	if id := t.find(parent, uint32(a), false); id != 0 {
		t.hits++
		return id
	}
	t.misses++
	p := t.node(parent)
	n := pnode{parent: parent, as: uint32(a), plen: p.plen + 1, flags: p.flags &^ nodeIsSet}
	if n.plen == 0 {
		n.plen-- // saturate
	}
	if research {
		n.flags |= pathResearch
	}
	// Only the empty path has no sequence AS below it: a base path
	// starts with its origin, and an AS_SET is always sandwiched.
	if parent == 0 || p.country == country+1 {
		n.country = country + 1
	}
	return t.add(n, maskBit(a))
}

// childSet returns the path `parent` with an AS_SET of members
// prepended. The set is canonicalised (sorted copy) and interned over
// the chain, so equal sets under equal parents are one node.
func (t *pathTree) childSet(parent uint32, members []asn.ASN) uint32 {
	sorted := slices.Clone(members)
	slices.Sort(sorted)
	id, found := uint32(0), false
	for s := t; s != nil && !found; s = s.parent {
		for k, have := range s.sets {
			if slices.Equal(have, sorted) {
				id, found = s.setBase+uint32(k), true
				break
			}
		}
	}
	if !found {
		id = t.setBase + uint32(len(t.sets))
		t.sets = append(t.sets, sorted)
	}
	if n := t.find(parent, id, true); n != 0 {
		t.hits++
		return n
	}
	t.misses++
	p := t.node(parent)
	n := pnode{parent: parent, as: id, plen: p.plen + 1, country: p.country, flags: p.flags | nodeIsSet | pathHasSet}
	if n.plen == 0 {
		n.plen--
	}
	var own uint64
	for _, m := range sorted {
		own |= maskBit(m)
	}
	return t.add(n, own)
}

// contains reports whether a appears anywhere on the path, AS_SETs
// included — RFC 4271 loop prevention, and so poisoning. The mask
// answers for nearly every AS that is not; only a set bit walks.
func (t *pathTree) contains(id uint32, a asn.ASN) bool {
	if t.mask(id)&maskBit(a) == 0 {
		return false
	}
	for id != 0 {
		n := t.node(id)
		if n.flags&nodeIsSet != 0 {
			if slices.Contains(t.set(n.as), a) {
				return true
			}
		} else if n.as == uint32(a) {
			return true
		}
		id = n.parent
	}
	return false
}

// appendSequence appends the path's sequence ASes, leftmost first,
// skipping AS_SETs: the AS-level forwarding path.
func (t *pathTree) appendSequence(dst []asn.ASN, id uint32) []asn.ASN {
	for id != 0 {
		n := t.node(id)
		if n.flags&nodeIsSet == 0 {
			dst = append(dst, asn.ASN(n.as))
		}
		id = n.parent
	}
	return dst
}

// path materialises the public form of a path: consecutive sequence
// elements merge into one segment, exactly as asn.Path.Prepend builds
// them, so materialised paths are Equal (and reflect.DeepEqual) whenever
// the abstract paths are, whichever tree they came from.
func (t *pathTree) path(id uint32) asn.Path {
	if id == 0 {
		return asn.Path{}
	}
	if top := t.node(id); top.flags&pathHasSet == 0 {
		seq := t.appendSequence(make([]asn.ASN, 0, top.plen), id)
		return asn.Path{Segments: []asn.Segment{{Type: asn.Sequence, ASNs: seq}}}
	}
	var segs []asn.Segment
	for id != 0 {
		n := t.node(id)
		switch last := len(segs) - 1; {
		case n.flags&nodeIsSet != 0:
			segs = append(segs, asn.Segment{Type: asn.Set, ASNs: slices.Clone(t.set(n.as))})
		case last >= 0 && segs[last].Type == asn.Sequence:
			segs[last].ASNs = append(segs[last].ASNs, asn.ASN(n.as))
		default:
			segs = append(segs, asn.Segment{Type: asn.Sequence, ASNs: []asn.ASN{asn.ASN(n.as)}})
		}
		id = n.parent
	}
	return asn.Path{Segments: segs}
}

// sharedBelow returns the bound below which an id names the same node in
// both trees: everything up to the point where their chains part. Trees
// of unrelated computations share only the empty path.
func sharedBelow(a, b *pathTree) uint32 {
	aEnd := a.base + uint32(len(a.nodes))
	for x := a; x != nil; aEnd, x = x.base, x.parent {
		bEnd := b.base + uint32(len(b.nodes))
		for y := b; y != nil; bEnd, y = y.base, y.parent {
			if x == y {
				return min(aEnd, bEnd)
			}
		}
	}
	return 1
}

// pathsEqual compares a path of ta with a path of tb element by
// element; ids below shared (see sharedBelow) compare by identity.
func pathsEqual(ta *pathTree, a uint32, tb *pathTree, b uint32, shared uint32) bool {
	for {
		if a == b && a < shared {
			return true
		}
		if a == 0 || b == 0 {
			return false
		}
		na, nb := ta.node(a), tb.node(b)
		if na.plen != nb.plen || na.flags != nb.flags {
			return false
		}
		if na.flags&nodeIsSet != 0 {
			if !slices.Equal(ta.set(na.as), tb.set(nb.as)) {
				return false
			}
		} else if na.as != nb.as {
			return false
		}
		a, b = na.parent, nb.parent
	}
}

// compactScratch is what compact reuses from call to call.
type compactScratch struct {
	remap []uint32 // old id → new id, 0 = not copied yet
	nodes []pnode
	chain []uint32
}

// compact copies the nodes reachable from the given records' paths into
// a fresh single-segment tree without an index, rewriting the records'
// path ids: what a RIB column keeps of a converged computation.
func (t *pathTree) compact(recs []rec, sc *compactScratch) pathTree {
	end := int(t.base) + len(t.nodes)
	if cap(sc.remap) < end {
		sc.remap = make([]uint32, end)
	}
	remap := sc.remap[:end]
	clear(remap)
	nodes := append(sc.nodes[:0], pnode{})
	var out pathTree
	for i := range recs {
		id := recs[i].path
		chain := sc.chain[:0]
		for ; id != 0 && remap[id] == 0; id = t.node(id).parent {
			chain = append(chain, id)
		}
		for k := len(chain) - 1; k >= 0; k-- {
			n := *t.node(chain[k])
			n.parent = remap[n.parent]
			if n.flags&nodeIsSet != 0 {
				out.sets = append(out.sets, t.set(n.as))
				n.as = uint32(len(out.sets) - 1)
			}
			remap[chain[k]] = uint32(len(nodes))
			nodes = append(nodes, n)
		}
		sc.chain = chain
		recs[i].path = remap[recs[i].path]
	}
	sc.nodes = nodes
	out.nodes = slices.Clone(nodes)
	return out
}
