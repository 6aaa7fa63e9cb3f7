// Package geodb is the measurement pipeline's IP-geolocation database —
// the Alidade stand-in of §4.1/§6. It answers "which city is this IP
// in?" from the ground-truth address plan, degraded by a configurable
// error rate: a fraction of lookups return a wrong city in the same
// country (commercial geolocation's classic failure) and a further
// fraction return nothing at all.
package geodb

import (
	"routelab/internal/asn"
	"routelab/internal/geo"
	"routelab/internal/topology"
)

// DB is the geolocation service. Immutable and safe for concurrent use.
type DB struct {
	topo *topology.Topology
	// MissRate is the probability a lookup returns no answer.
	missRate float64
	// WrongCityRate is the probability a located IP is placed in a
	// different city of the same country.
	wrongCityRate float64
	seed          int64
}

// Config sets the database's error model.
type Config struct {
	MissRate      float64
	WrongCityRate float64
	Seed          int64
}

// DefaultConfig mirrors a good infrastructure-focused geolocation
// database: nearly complete for router IPs, with small errors.
func DefaultConfig() Config {
	return Config{MissRate: 0.03, WrongCityRate: 0.04, Seed: 1}
}

// New builds the database over a topology's address plan.
func New(topo *topology.Topology, cfg Config) *DB {
	return &DB{
		topo:          topo,
		missRate:      cfg.MissRate,
		wrongCityRate: cfg.WrongCityRate,
		seed:          cfg.Seed,
	}
}

// Locate returns the city of an IP, or ok=false when the database has no
// answer. Deterministic per (DB, ip).
func (d *DB) Locate(ip asn.Addr) (geo.CityID, bool) {
	truth, ok := d.truthCity(ip)
	if !ok {
		return 0, false
	}
	h := mix(uint64(d.seed), uint64(ip))
	if float64(h%10000)/10000 < d.missRate {
		return 0, false
	}
	h2 := mix(h, 0x5bd1e995)
	if float64(h2%10000)/10000 < d.wrongCityRate {
		// Misplace within the same country.
		cc := d.topo.World.CountryOf(truth)
		if c := d.topo.World.Country(cc); c != nil && len(c.Cities) > 1 {
			return c.Cities[(h2>>16)%uint64(len(c.Cities))], true
		}
	}
	return truth, true
}

// truthCity resolves ground truth: router IPs decode exactly; host IPs
// in announced prefixes land in a deterministic city of the owning AS;
// IXP fabric IPs are unlocatable (no public records).
func (d *DB) truthCity(ip asn.Addr) (geo.CityID, bool) {
	if topology.IsIXPAddr(ip) {
		return 0, false
	}
	if owner, city, ok := d.topo.LocateRouter(ip); ok {
		if city == 0 {
			return d.fallbackCity(owner, ip)
		}
		return city, true
	}
	if owner := d.topo.ASByAddr(ip); !owner.IsZero() {
		// Regional serving prefixes pin their hosts to one city.
		if city := d.topo.CityOfAddr(ip); city != 0 {
			return city, true
		}
		return d.fallbackCity(owner, ip)
	}
	return 0, false
}

func (d *DB) fallbackCity(owner asn.ASN, ip asn.Addr) (geo.CityID, bool) {
	x := d.topo.AS(owner)
	if x == nil || len(x.Cities) == 0 {
		return 0, false
	}
	return x.Cities[mix(uint64(owner), uint64(ip))%uint64(len(x.Cities))], true
}

func mix(a, b uint64) uint64 {
	x := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
