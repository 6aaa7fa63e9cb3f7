package asn

import (
	"sort"
	"strings"
)

// SegmentType distinguishes the two AS_PATH segment kinds routelab uses.
// (RFC 4271 defines two more confederation kinds, which never appear in
// interdomain experiments and are rejected by the wire codec.)
type SegmentType uint8

const (
	// Sequence is an ordered AS_SEQUENCE segment.
	Sequence SegmentType = 2
	// Set is an unordered AS_SET segment; the whole set counts as one hop
	// for path-length purposes. PEERING wraps poisoned ASes in one AS_SET
	// so poisoning many ASes does not balloon path length.
	Set SegmentType = 1
)

// Segment is one AS_PATH segment.
type Segment struct {
	Type SegmentType
	ASNs []ASN
}

// Path is a BGP AS path: a series of segments, leftmost AS first (the
// most recent AS to forward the announcement). A plain path from origin O
// heard via neighbor N is Sequence[N ... O].
type Path struct {
	Segments []Segment
}

// PathFromASNs builds a single-sequence path. The slice is copied.
func PathFromASNs(asns ...ASN) Path {
	if len(asns) == 0 {
		return Path{}
	}
	cp := make([]ASN, len(asns))
	copy(cp, asns)
	return Path{Segments: []Segment{{Type: Sequence, ASNs: cp}}}
}

// Prepend returns a new path with a prepended to the front, merging into
// an existing leading sequence when possible. The receiver is not
// modified; segment slices are copied as needed.
func (p Path) Prepend(a ASN) Path {
	segs := make([]Segment, 0, len(p.Segments)+1)
	if len(p.Segments) > 0 && p.Segments[0].Type == Sequence {
		head := make([]ASN, 0, len(p.Segments[0].ASNs)+1)
		head = append(head, a)
		head = append(head, p.Segments[0].ASNs...)
		segs = append(segs, Segment{Type: Sequence, ASNs: head})
		segs = append(segs, p.Segments[1:]...)
	} else {
		segs = append(segs, Segment{Type: Sequence, ASNs: []ASN{a}})
		segs = append(segs, p.Segments...)
	}
	return Path{Segments: segs}
}

// PrependSet returns a new path with an AS_SET of the given ASes at the
// front. The input slice is copied and sorted for canonical form.
func (p Path) PrependSet(asns []ASN) Path {
	cp := make([]ASN, len(asns))
	copy(cp, asns)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	segs := make([]Segment, 0, len(p.Segments)+1)
	segs = append(segs, Segment{Type: Set, ASNs: cp})
	segs = append(segs, p.Segments...)
	return Path{Segments: segs}
}

// Len returns the BGP path length: one per AS in sequence segments, one
// per whole AS_SET segment (RFC 4271 §9.1.2.2 route-selection counting).
func (p Path) Len() int {
	n := 0
	for _, s := range p.Segments {
		switch s.Type {
		case Sequence:
			n += len(s.ASNs)
		case Set:
			n++
		}
	}
	return n
}

// First returns the leftmost AS (the neighbor the route was heard from),
// or 0 if the path is empty or begins with an AS_SET.
func (p Path) First() ASN {
	if len(p.Segments) == 0 {
		return 0
	}
	s := p.Segments[0]
	if s.Type != Sequence || len(s.ASNs) == 0 {
		return 0
	}
	return s.ASNs[0]
}

// Origin returns the rightmost AS (the route's originator), or 0 if the
// path is empty or ends with an AS_SET.
func (p Path) Origin() ASN {
	if len(p.Segments) == 0 {
		return 0
	}
	s := p.Segments[len(p.Segments)-1]
	if s.Type != Sequence || len(s.ASNs) == 0 {
		return 0
	}
	return s.ASNs[len(s.ASNs)-1]
}

// Contains reports whether a appears anywhere in the path, including
// inside AS_SET segments. BGP loop prevention — and therefore poisoning —
// is built on this test.
func (p Path) Contains(a ASN) bool {
	for _, s := range p.Segments {
		for _, x := range s.ASNs {
			if x == a {
				return true
			}
		}
	}
	return false
}

// HasSet reports whether any segment is an AS_SET. Some ASes filter
// announcements carrying AS_SETs (draft-ietf-idr-deprecate-as-set-confed-set),
// which is one of the poisoning limitations §4.4 discusses.
func (p Path) HasSet() bool {
	for _, s := range p.Segments {
		if s.Type == Set {
			return true
		}
	}
	return false
}

// Sequence returns the concatenated ASes of all Sequence segments in
// order, skipping AS_SETs. This is the "AS-level path" a traceroute
// would traverse; poisoned ASes inside sets do not forward traffic.
func (p Path) Sequence() []ASN {
	var out []ASN
	for _, s := range p.Segments {
		if s.Type == Sequence {
			out = append(out, s.ASNs...)
		}
	}
	return out
}

// Equal reports whether two paths are identical segment by segment.
func (p Path) Equal(q Path) bool {
	if len(p.Segments) != len(q.Segments) {
		return false
	}
	for i, s := range p.Segments {
		t := q.Segments[i]
		if s.Type != t.Type || len(s.ASNs) != len(t.ASNs) {
			return false
		}
		for j, a := range s.ASNs {
			if a != t.ASNs[j] {
				return false
			}
		}
	}
	return true
}

// String renders the path in looking-glass style:
// "3356 174 {64500,64501} 65000".
func (p Path) String() string {
	var b strings.Builder
	for i, s := range p.Segments {
		if i > 0 {
			b.WriteByte(' ')
		}
		if s.Type == Set {
			b.WriteByte('{')
		}
		for j, a := range s.ASNs {
			if j > 0 {
				if s.Type == Set {
					b.WriteByte(',')
				} else {
					b.WriteByte(' ')
				}
			}
			b.WriteString(uitoa(a))
		}
		if s.Type == Set {
			b.WriteByte('}')
		}
	}
	return b.String()
}

func uitoa(a ASN) string {
	if a == 0 {
		return "0"
	}
	var buf [10]byte
	i := len(buf)
	for a > 0 {
		i--
		buf[i] = byte('0' + a%10)
		a /= 10
	}
	return string(buf[i:])
}
