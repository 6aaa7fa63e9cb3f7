// Package lookingglass emulates the operator-run route servers the
// paper uses to validate prefix-specific-policy inferences (§4.3): a
// subset of ASes expose a "show ip bgp <prefix>" interface answering
// from their converged tables.
//
// Coverage is partial by construction — the paper found servers in only
// 28 of 149 neighboring ASes — and the answering AS reveals only its
// OWN best route, never its neighbors'.
package lookingglass

import (
	"fmt"
	"math/rand"
	"sort"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/topology"
)

// Directory is the set of reachable looking-glass servers.
type Directory struct {
	rib   *bgp.RIB
	hosts map[asn.ASN]bool
}

// Deploy stands up looking-glass servers at a fraction of transit ASes
// (stubs rarely run them). The same converged RIB that drives the data
// plane answers queries.
func Deploy(topo *topology.Topology, rib *bgp.RIB, rng *rand.Rand, coverage float64) *Directory {
	d := &Directory{rib: rib, hosts: make(map[asn.ASN]bool)}
	var cands []asn.ASN
	for _, cls := range []topology.Class{topology.Tier1, topology.LargeISP, topology.SmallISP, topology.Research} {
		cands = append(cands, topo.ASesOfClass(cls)...)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, a := range cands {
		if rng.Float64() < coverage {
			d.hosts[a] = true
		}
	}
	return d
}

// Has reports whether an AS runs a reachable looking glass.
func (d *Directory) Has(a asn.ASN) bool { return d.hosts[a] }

// Entry is one "show ip bgp" answer.
type Entry struct {
	Prefix  asn.Prefix
	Path    []asn.ASN // the answering AS first, origin last
	NextHop asn.ASN
}

// Query asks the AS's route server for its best route covering addr.
// It fails when the AS runs no server or holds no route.
func (d *Directory) Query(a asn.ASN, addr asn.Addr) (Entry, error) {
	if !d.hosts[a] {
		return Entry{}, fmt.Errorf("lookingglass: %s runs no public route server", a)
	}
	rt, ok := d.rib.Lookup(a, addr)
	if !ok {
		return Entry{}, fmt.Errorf("lookingglass: %s has no route covering %s", a, addr)
	}
	return Entry{
		Prefix:  rt.Prefix,
		Path:    d.rib.ASPath(a, rt.Prefix),
		NextHop: rt.NextHop,
	}, nil
}

// RouteVia reports whether the AS's best route for the prefix goes
// DIRECTLY through the given next hop.
func (d *Directory) RouteVia(a asn.ASN, p asn.Prefix, nextHop asn.ASN) (bool, error) {
	e, err := d.Query(a, p.Nth(1))
	if err != nil {
		return false, err
	}
	return e.NextHop == nextHop, nil
}
