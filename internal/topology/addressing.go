package topology

import (
	"routelab/internal/asn"
	"routelab/internal/geo"
)

// The deterministic address plan.
//
// Each generated AS with index i (1-based, generation order) owns the
// /16 whose address is i<<16:
//
//	offset 0    /18  the AS's FIRST announced prefix; its first /24 is
//	                 the router-infrastructure block, so backbone
//	                 addresses are resolvable by IP→AS longest match —
//	                 as on the real Internet, where ISPs announce
//	                 covering blocks for their backbones. Hosts inside
//	                 the /18 are numbered from offset 1024 up, clear of
//	                 the infrastructure /24.
//	offset 16+  /24  additional originated (announced) prefixes
//	offset 200+ /24  off-net cache prefixes hosted for content providers
//
// Router addresses encode their city: a router in the AS's city slot s
// (index into AS.Cities) with unit k lives at infra.Nth(s*routersPerCity
// + k), which makes ground-truth IP geolocation exact and invertible.
//
// IXP fabrics get /24s in 240.0.0.0/8 keyed by city; IXP prefixes are
// never announced in BGP, so the IP→AS mapping step cannot resolve them —
// exactly the artifact Chen et al.'s conversion must cope with.

const (
	routersPerCity = 8
	ixpBase        = asn.Addr(240) << 24
)

// asBlock returns the /16 owned by the i-th generated AS.
func asBlock(i int) asn.Prefix {
	return asn.NewPrefix(asn.Addr(uint32(i))<<16, 16)
}

// infraPrefixFor returns the router /24 of the i-th generated AS.
func infraPrefixFor(i int) asn.Prefix {
	return asn.NewPrefix(asBlock(i).Addr, 24)
}

// originPrefixFor returns the j-th announced prefix of the i-th
// generated AS: the covering /18 first, then /24s.
func originPrefixFor(i, j int) asn.Prefix {
	if j == 0 {
		return asn.NewPrefix(asBlock(i).Addr, 18)
	}
	return asn.NewPrefix(asBlock(i).Addr+asn.Addr((16+uint32(j))<<8), 24)
}

// HostOffset converts a small host index into an address offset inside
// an AS's first (covering) prefix that cannot collide with the
// infrastructure /24 or the additional /24s at offsets 16+.
func HostOffset(k uint32) uint32 { return 1024 + k%3072 }

// cachePrefixFor returns the j-th cache /24 inside the i-th generated
// AS's block.
func cachePrefixFor(i, j int) asn.Prefix {
	return asn.NewPrefix(asBlock(i).Addr+asn.Addr((200+uint32(j))<<8), 24)
}

// IXPPrefix returns the (unannounced) exchange-fabric /24 of a city.
func IXPPrefix(c geo.CityID) asn.Prefix {
	return asn.NewPrefix(ixpBase+asn.Addr(uint32(c))<<8, 24)
}

// IsIXPAddr reports whether ip belongs to any IXP fabric.
func IsIXPAddr(ip asn.Addr) bool { return ip >= ixpBase }

// RouterIP returns the address of router k of the AS in city c. It
// returns 0 if the AS has no PoP in c or k is out of range.
func (t *Topology) RouterIP(a asn.ASN, c geo.CityID, k int) asn.Addr {
	x := t.ases[a]
	if x == nil || k < 0 || k >= routersPerCity {
		return 0
	}
	slot := x.citySlot(c)
	if slot < 0 {
		return 0
	}
	return x.InfraPrefix.Nth(uint32(slot*routersPerCity + k))
}

// LocateRouter inverts RouterIP: it returns the owning AS and city of an
// infrastructure address. ok is false for non-infrastructure addresses.
func (t *Topology) LocateRouter(ip asn.Addr) (a asn.ASN, c geo.CityID, ok bool) {
	p := asn.NewPrefix(ip, 24)
	owner, found := t.infraOwner[p]
	if !found {
		return 0, 0, false
	}
	x := t.ases[owner]
	slot := int(ip-p.Addr) / routersPerCity
	if slot >= len(x.Cities) {
		return owner, 0, true // a router with no modeled city
	}
	return owner, x.Cities[slot], true
}

// ASByAddr resolves an address to the AS announcing its covering prefix
// (longest match). Infrastructure and IXP addresses are NOT announced and
// return 0 — resolving those is the measurement pipeline's problem.
func (t *Topology) ASByAddr(ip asn.Addr) asn.ASN {
	for l := uint8(32); l >= 8; l-- {
		if o, ok := t.prefixOrigin[asn.NewPrefix(ip, l)]; ok {
			return o
		}
	}
	return 0
}

// CityOfAddr returns the pinned city of the announced prefix covering
// ip, or 0 when the covering prefix (if any) is unpinned.
func (t *Topology) CityOfAddr(ip asn.Addr) geo.CityID {
	for l := uint8(32); l >= 8; l-- {
		p := asn.NewPrefix(ip, l)
		if _, ok := t.prefixOrigin[p]; ok {
			return t.prefixCity[p]
		}
	}
	return 0
}
