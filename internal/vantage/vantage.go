// Package vantage emulates the public BGP route-monitor infrastructure
// (RouteViews / RIPE RIS): a handful of collectors peering with a
// core-biased sample of ASes, each exporting its best route per prefix.
//
// The deliberate visibility bias is central to the paper: monitors
// expose many paths from core and research networks but few from the
// edge, miss backup links entirely, and therefore feed relationship
// inference an incomplete picture.
package vantage

import (
	"math/rand"
	"sort"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/topology"
)

// Entry is one RIB entry observed at a collector: the feeding peer's
// best AS path for a prefix. Path starts with the peer itself and ends
// at the origin.
type Entry struct {
	Peer   asn.ASN
	Prefix asn.Prefix
	Path   []asn.ASN
}

// Snapshot is one collection epoch (the paper aggregates five monthly
// snapshots, Oct'14–Feb'15).
type Snapshot struct {
	Epoch   int
	Entries []Entry
}

// SelectPeers picks n feed-providing member ASes with the historical
// RouteViews skew: every Tier-1 and research backbone that exists, then
// large ISPs, then a sprinkle of content networks. Edge networks do not
// feed collectors.
func SelectPeers(topo *topology.Topology, rng *rand.Rand, n int) []asn.ASN {
	var peers []asn.ASN
	add := func(pool []asn.ASN, k int) {
		idx := rng.Perm(len(pool))
		for _, i := range idx {
			if k == 0 || len(peers) >= n {
				return
			}
			peers = append(peers, pool[i])
			k--
		}
	}
	peers = append(peers, topo.ASesOfClass(topology.Tier1)...)
	peers = append(peers, topo.ASesOfClass(topology.Research)...)
	if len(peers) > n {
		peers = peers[:n]
	}
	add(topo.ASesOfClass(topology.LargeISP), n-len(peers))
	add(topo.ASesOfClass(topology.Content), (n-len(peers)+1)/2)
	add(topo.ASesOfClass(topology.SmallISP), n-len(peers))
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	return peers
}

// Collect assembles the snapshot a collector would dump from the given
// RIB: each peer's best path for every covered prefix.
func Collect(rib *bgp.RIB, peers []asn.ASN, epoch int) *Snapshot {
	s := &Snapshot{Epoch: epoch}
	for _, p := range rib.Prefixes() {
		for _, peer := range peers {
			path := rib.ASPath(peer, p)
			if path == nil {
				continue
			}
			s.Entries = append(s.Entries, Entry{Peer: peer, Prefix: p, Path: path})
		}
	}
	return s
}

// OriginNeighbors returns, per prefix, the set of neighbors the origin
// was observed announcing the prefix to — the evidence base for the
// prefix-specific-policy criteria of §4.3. An edge N→O is "observed for
// prefix P" when some feed path toward P ends ... N O.
func (s *Snapshot) OriginNeighbors() map[asn.Prefix]map[asn.ASN]bool {
	out := make(map[asn.Prefix]map[asn.ASN]bool)
	for i := range s.Entries {
		e := &s.Entries[i]
		if len(e.Path) < 2 {
			continue
		}
		n := e.Path[len(e.Path)-2]
		m := out[e.Prefix]
		if m == nil {
			m = make(map[asn.ASN]bool)
			out[e.Prefix] = m
		}
		m[n] = true
	}
	return out
}

// ObservedLinks returns every adjacent AS pair appearing on any feed
// path, canonically ordered.
func (s *Snapshot) ObservedLinks() map[topology.LinkKey]bool {
	out := make(map[topology.LinkKey]bool)
	for i := range s.Entries {
		p := s.Entries[i].Path
		for j := 0; j+1 < len(p); j++ {
			if p[j] != p[j+1] {
				out[topology.MakeLinkKey(p[j], p[j+1])] = true
			}
		}
	}
	return out
}
