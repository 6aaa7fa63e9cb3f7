// Package ipasmap converts traceroute IP paths into AS-level paths the
// way the paper does (after Chen et al., CoNEXT'09): longest-prefix
// matching against BGP-announced prefixes, then a cleanup pass that
// collapses duplicates, discards unresponsive and unmappable (IXP)
// hops, and resolves third-party-address anomalies using the observed
// AS adjacency graph.
//
// The conversion is intentionally fallible — it works only from what
// BGP feeds expose, so a hop inside an unannounced block stays unknown
// and a single misattributed border address can insert a phantom AS.
// The paper's pipeline has the same property.
package ipasmap

import (
	"slices"

	"routelab/internal/asn"
	"routelab/internal/topology"
	"routelab/internal/traceroute"
	"routelab/internal/vantage"
)

// Mapper resolves addresses to origin ASes using prefixes observed in
// BGP feeds.
type Mapper struct {
	origin map[asn.Prefix]asn.ASN
	// lens holds the distinct announced prefix lengths, longest first: a
	// longest-prefix match is one probe of origin per entry.
	lens []uint8
	// knownLink reports adjacencies observed in feeds; used to veto
	// phantom ASes during cleanup.
	knownLink map[topology.LinkKey]bool
}

// FromSnapshot builds a mapper from a monitor snapshot: prefix origins
// are taken from the last AS of each feed path, adjacencies from every
// consecutive pair.
func FromSnapshot(s *vantage.Snapshot) *Mapper {
	m := &Mapper{
		origin:    make(map[asn.Prefix]asn.ASN),
		knownLink: s.ObservedLinks(),
	}
	for i := range s.Entries {
		e := &s.Entries[i]
		if len(e.Path) == 0 {
			continue
		}
		if _, dup := m.origin[e.Prefix]; !dup {
			m.origin[e.Prefix] = e.Path[len(e.Path)-1]
			if !slices.Contains(m.lens, e.Prefix.Len) {
				m.lens = append(m.lens, e.Prefix.Len)
			}
		}
	}
	slices.Sort(m.lens)
	slices.Reverse(m.lens)
	return m
}

// ASOf longest-prefix-matches ip against announced prefixes; 0 when no
// covering prefix was announced (router infrastructure, IXP fabrics).
func (m *Mapper) ASOf(ip asn.Addr) asn.ASN {
	if ip == 0 {
		return 0
	}
	_, a := m.match(ip)
	return a
}

// match returns the longest announced prefix covering ip and its
// origin, or zeroes: one map probe per distinct announced length.
func (m *Mapper) match(ip asn.Addr) (asn.Prefix, asn.ASN) {
	for _, l := range m.lens {
		p := asn.NewPrefix(ip, l)
		if a, ok := m.origin[p]; ok {
			return p, a
		}
	}
	return asn.Prefix{}, 0
}

// ConvertTrace derives the AS path of a traceroute, source AS first.
// The boolean reports whether the conversion is usable (reached the
// destination AS and left no unresolved gap).
func (m *Mapper) ConvertTrace(tr traceroute.Trace) ([]asn.ASN, bool) {
	// 1. Map each responsive hop.
	raw := make([]asn.ASN, 0, len(tr.Hops)+1)
	raw = append(raw, tr.SrcAS) // the probe knows its own AS
	for _, h := range tr.Hops {
		a := m.ASOf(h.IP)
		if a.IsZero() {
			// Unresponsive or unmappable hop: ignore; gaps are
			// tolerated once anomalies are dropped below.
			continue
		}
		raw = append(raw, a)
	}
	// 2. Collapse consecutive duplicates.
	path := raw[:0]
	for _, a := range raw {
		if len(path) == 0 || path[len(path)-1] != a {
			path = append(path, a)
		}
	}
	// 3. Resolve single-hop anomalies: X sandwiched between A ... A is a
	// third-party address (drop X); A X B where the feeds know A-B but
	// neither A-X nor X-B is a phantom (drop X).
	path = m.dropAnomalies(path)
	// 4. A usable decision path must end at the destination AS.
	ok := tr.Reached && len(path) >= 1
	return path, ok
}

func (m *Mapper) dropAnomalies(path []asn.ASN) []asn.ASN {
	changed := true
	for changed {
		changed = false
		for i := 1; i+1 < len(path); i++ {
			a, x, b := path[i-1], path[i], path[i+1]
			if a == b {
				// A X A: classic third-party interface.
				path = append(path[:i], path[i+2:]...)
				path = collapse(path)
				changed = true
				break
			}
			if m.knownLink[topology.MakeLinkKey(a, b)] &&
				!m.knownLink[topology.MakeLinkKey(a, x)] &&
				!m.knownLink[topology.MakeLinkKey(x, b)] {
				// A X B with A-B known and X floating: phantom.
				path = append(path[:i], path[i+1:]...)
				path = collapse(path)
				changed = true
				break
			}
		}
	}
	return path
}

func collapse(path []asn.ASN) []asn.ASN {
	out := path[:0]
	for _, a := range path {
		if len(out) == 0 || out[len(out)-1] != a {
			out = append(out, a)
		}
	}
	return out
}

// PrefixOf returns the longest announced prefix covering ip, or the zero
// prefix.
func (m *Mapper) PrefixOf(ip asn.Addr) asn.Prefix {
	p, _ := m.match(ip)
	return p
}
