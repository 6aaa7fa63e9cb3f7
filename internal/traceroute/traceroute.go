// Package traceroute simulates the data plane: it forwards a probe
// packet hop by hop along the converged ground-truth routes and
// synthesizes the router-level IP path a traceroute would report —
// including the artifacts that make real IP→AS conversion hard
// (unresponsive hops, third-party addresses, IXP fabric addresses).
package traceroute

import (
	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/geo"
	"routelab/internal/topology"
)

// Hop is one reported traceroute hop. A zero IP is an unresponsive hop
// ("* * *"). TrueAS and TrueCity are ground-truth annotations for
// debugging and oracle tests; the measurement pipeline must not read
// them.
type Hop struct {
	IP       asn.Addr
	TrueAS   asn.ASN
	TrueCity geo.CityID
}

// Trace is one completed measurement.
type Trace struct {
	SrcAS   asn.ASN
	SrcCity geo.CityID
	Dst     asn.Addr
	Hops    []Hop
	// Reached reports whether the probe reached the destination AS.
	Reached bool
	// TrueASPath is the ground-truth AS-level path, source first. Oracle
	// data; the pipeline derives its own AS path via ipasmap.
	TrueASPath []asn.ASN
}

// Config sets the artifact rates.
type Config struct {
	// NoReplyRate is the probability a router does not answer.
	NoReplyRate float64
	// ThirdPartyRate is the probability a border router replies with an
	// address from the PREVIOUS AS's space (the classic traceroute
	// artifact that inflates AS paths).
	ThirdPartyRate float64
	// IXPRate is the probability an inter-AS hop crosses a public
	// exchange fabric and reports the IXP's (unannounced) address.
	IXPRate float64
	// MaxHops bounds the walk.
	MaxHops int
	// Seed drives the deterministic artifact placement.
	Seed int64
}

// DefaultConfig mirrors artifact rates reported in traceroute
// measurement literature.
func DefaultConfig() Config {
	return Config{
		NoReplyRate:    0.04,
		ThirdPartyRate: 0.025,
		IXPRate:        0.04,
		MaxHops:        30,
		Seed:           1,
	}
}

// Tracer issues traceroutes over a converged RIB.
type Tracer struct {
	topo *topology.Topology
	rib  *bgp.RIB
	cfg  Config
}

// New returns a tracer.
func New(topo *topology.Topology, rib *bgp.RIB, cfg Config) *Tracer {
	if cfg.MaxHops == 0 {
		cfg = DefaultConfig()
	}
	return &Tracer{topo: topo, rib: rib, cfg: cfg}
}

// Trace walks the data plane from a probe in srcAS/srcCity toward dst.
func (tr *Tracer) Trace(srcAS asn.ASN, srcCity geo.CityID, dst asn.Addr) Trace {
	t := Trace{SrcAS: srcAS, SrcCity: srcCity, Dst: dst}
	dstAS := tr.topo.ASByAddr(dst)
	cur := srcAS
	var prev asn.ASN
	entryCity := srcCity
	t.TrueASPath = append(t.TrueASPath, cur)
	for hops := 0; hops < tr.cfg.MaxHops; hops++ {
		if cur == dstAS {
			// Destination replies with its real address.
			t.Hops = append(t.Hops, Hop{IP: dst, TrueAS: cur, TrueCity: entryCity})
			t.Reached = true
			return t
		}
		next, egress, ok := tr.rib.Forward(cur, dst)
		if !ok || next.IsZero() {
			// No route (or we are at an origin that is not the
			// destination AS — an off-net cache address mismatch).
			t.Reached = ok
			if t.Reached {
				t.Hops = append(t.Hops, Hop{IP: dst, TrueAS: cur, TrueCity: entryCity})
			}
			return t
		}
		// Ingress router of cur (where the packet entered this AS). With
		// some probability the border router replies with its interface
		// address on the PREVIOUS AS's side — the third-party artifact.
		ingress := tr.routerHop(cur, entryCity, dst, 0)
		if !prev.IsZero() && ingress.IP != 0 &&
			tr.roll(dst, prev, cur, 7) < tr.cfg.ThirdPartyRate {
			if tp := tr.topo.RouterIP(prev, entryCity, 2); tp != 0 {
				ingress.IP = tp
			}
		}
		t.Hops = append(t.Hops, ingress)
		// Egress router if the packet crosses the AS to another city.
		if egress != entryCity {
			t.Hops = append(t.Hops, tr.routerHop(cur, egress, dst, 1))
		}
		// Possibly an IXP fabric hop at the interconnection.
		if tr.roll(dst, cur, next, 1) < tr.cfg.IXPRate {
			t.Hops = append(t.Hops, Hop{
				IP:       topology.IXPPrefix(egress).Nth(uint32(uint64(cur) % 200)),
				TrueAS:   next, // the fabric address fronts the next AS's router
				TrueCity: egress,
			})
		}
		t.TrueASPath = append(t.TrueASPath, next)
		prev = cur
		cur = next
		entryCity = egress
	}
	return t
}

// routerHop synthesizes the reply of one router of AS a in a city,
// applying the no-reply and third-party artifacts.
func (tr *Tracer) routerHop(a asn.ASN, city geo.CityID, dst asn.Addr, k int) Hop {
	if tr.roll(dst, a, asn.ASN(city), 100+k) < tr.cfg.NoReplyRate {
		return Hop{TrueAS: a, TrueCity: city}
	}
	ip := tr.topo.RouterIP(a, city, k)
	if ip == 0 {
		// AS has no PoP slot here (footprint was extended after address
		// planning); fall back to its first city.
		if x := tr.topo.AS(a); x != nil && len(x.Cities) > 0 {
			ip = tr.topo.RouterIP(a, x.Cities[0], k)
		}
	}
	return Hop{IP: ip, TrueAS: a, TrueCity: city}
}

// roll is the deterministic per-(trace, site) randomness behind the
// artifact placement.
func (tr *Tracer) roll(dst asn.Addr, a, b asn.ASN, salt int) float64 {
	h := uint64(tr.cfg.Seed) ^ 0x9e3779b97f4a7c15
	for _, v := range []uint64{uint64(dst), uint64(a), uint64(b), uint64(salt)} {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return float64(h%100000) / 100000
}
