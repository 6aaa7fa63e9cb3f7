package classify

import (
	"encoding/binary"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/peering"
	"routelab/internal/topology"
)

// AlternateVerdict classifies one target's discovered preference order
// (§4.4 "Alternate routes"): does the sequence respect relationship
// ordering (Best), length ordering (Short), both, or neither?
type AlternateVerdict uint8

const (
	// AltBestShort: relationships never improve and lengths never
	// shrink down the preference order.
	AltBestShort AlternateVerdict = iota
	// AltBestOnly: relationship ordering holds, lengths jump around.
	AltBestOnly
	// AltShortOnly: length ordering holds, relationships jump around.
	AltShortOnly
	// AltNeither: a later (less preferred) route was cheaper or
	// strictly shorter — the §4.4 violations.
	AltNeither
)

// String names the verdict as §4.4 reports it.
func (v AlternateVerdict) String() string {
	switch v {
	case AltBestShort:
		return "Best & Shortest"
	case AltBestOnly:
		return "Best only"
	case AltShortOnly:
		return "Shortest only"
	default:
		return "Neither"
	}
}

// ClassifyAlternates checks the §3.3 active-measurement properties over
// a discovery run: for each consecutive route pair, (1) the earlier
// next hop's relationship must be equal or better, and (2) the earlier
// path must be shorter or equal.
func (cx *Context) ClassifyAlternates(r peering.AlternateResult) AlternateVerdict {
	best, short := true, true
	steps := r.Steps
	for i := 0; i+1 < len(steps); i++ {
		a, b := steps[i].Route, steps[i+1].Route
		ra := cx.Graph.Rel(r.Target, a.NextHop).Rank()
		rb := cx.Graph.Rel(r.Target, b.NextHop).Rank()
		if ra > rb {
			best = false
		}
		if pathLenIgnoringPoison(a) > pathLenIgnoringPoison(b) {
			short = false
		}
	}
	switch {
	case best && short:
		return AltBestShort
	case best:
		return AltBestOnly
	case short:
		return AltShortOnly
	default:
		return AltNeither
	}
}

// pathLenIgnoringPoison compares route lengths fairly across rounds: the
// poisoning sandwich inflates later paths by two hops regardless of the
// target's actual choice, so discount it.
func pathLenIgnoringPoison(r bgp.Route) int {
	return len(SequenceIgnoringPoison(r.Path))
}

// SequenceIgnoringPoison returns the AS-level path a route would have
// had without poisoning. A poisoned announcement leaves the origin as
// the sandwich "O {poisoned} O", so Sequence keeps the origin twice:
// the AS_SET and the origin after it are dropped, and
// "118 109 1103 1109 {131} 1109" reads "118 109 1103 1109", which
// compares with an unpoisoned route of the same run.
func SequenceIgnoringPoison(p asn.Path) []asn.ASN {
	seq := p.Sequence()
	if p.HasSet() && len(seq) > 0 {
		seq = seq[:len(seq)-1]
	}
	return seq
}

// AlternateSummary aggregates a campaign of discovery runs into the
// §4.4 headline numbers.
type AlternateSummary struct {
	Targets  int
	Verdicts map[AlternateVerdict]int
	// Announcements is the number of distinct poisoned announcements
	// issued across the campaign.
	Announcements int
	// LinksObserved is the set of inter-AS links seen across all runs;
	// LinksMissing are those absent from the inferred graph, and
	// LinksOnlyPoisoned the subset visible only after poisoning forced
	// an alternate (the "22.2%" of §3.2).
	LinksObserved, LinksMissing, LinksOnlyPoisoned int
}

// SummarizeAlternates classifies every run and tallies link visibility.
func (cx *Context) SummarizeAlternates(runs []peering.AlternateResult) AlternateSummary {
	s := AlternateSummary{Verdicts: make(map[AlternateVerdict]int)}
	type linkInfo struct{ first, later bool }
	links := map[topology.LinkKey]*linkInfo{}
	seenAnn := map[string]bool{}
	// keyBuf is the reusable announcement-identity scratch key: prefix
	// addr+len then the poisoned ASNs, all fixed-width big-endian. The
	// string(keyBuf) map probe does not allocate (the compiler keeps the
	// conversion on the stack for lookups); only a first-seen insert pays
	// for a copy. Announcements are identified by (prefix, poison set) —
	// the same identity the retired string rendering encoded, without the
	// per-step decimal formatting.
	var keyBuf []byte
	for _, r := range runs {
		if len(r.Steps) == 0 {
			continue
		}
		s.Targets++
		s.Verdicts[cx.ClassifyAlternates(r)]++
		for i, st := range r.Steps {
			keyBuf = binary.BigEndian.AppendUint32(keyBuf[:0], uint32(st.Route.Prefix.Addr))
			keyBuf = append(keyBuf, st.Route.Prefix.Len)
			for _, a := range st.PoisonedSoFar {
				keyBuf = binary.BigEndian.AppendUint32(keyBuf, uint32(a))
			}
			if !seenAnn[string(keyBuf)] {
				seenAnn[string(keyBuf)] = true
				s.Announcements++
			}
			path := st.Route.ASPathFrom(r.Target)
			for j := 0; j+1 < len(path); j++ {
				k := topology.MakeLinkKey(path[j], path[j+1])
				li := links[k]
				if li == nil {
					li = &linkInfo{}
					links[k] = li
				}
				if i == 0 {
					li.first = true
				} else {
					li.later = true
				}
			}
		}
	}
	for k, li := range links {
		s.LinksObserved++
		if !cx.Graph.HasEdge(k.Lo, k.Hi) {
			s.LinksMissing++
			if !li.first && li.later {
				s.LinksOnlyPoisoned++
			}
		}
	}
	return s
}
