// Package dnsdb models the DNS facts routelab's measurement pipeline
// depends on: content hostnames that resolve differently depending on the
// querying probe (CDN mapping), and SOA records that expose which mail
// domains share an authoritative zone (the sibling-inference signal of
// §4.2: dish.com and dishaccess.tv share the dishnetwork.com SOA).
package dnsdb

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"routelab/internal/asn"
	"routelab/internal/geo"
)

// HostingKind describes how a content hostname is served.
type HostingKind uint8

const (
	// OnNet hostnames always resolve into the provider's own AS.
	OnNet HostingKind = iota
	// OffNet hostnames resolve to caches deployed inside eyeball ISPs
	// when the querying probe's AS (or its provider) hosts a cache —
	// the Akamai model. This is why the paper's 34 hostnames produced
	// 218 distinct destination ASes.
	OffNet
)

// Hostname is one content DNS name.
type Hostname struct {
	Name string
	// Provider is the content provider's home AS.
	Provider asn.ASN
	// Kind selects on-net vs off-net serving.
	Kind HostingKind
	// Prefixes are the provider's serving prefixes (on-net answers).
	Prefixes []asn.Prefix
	// Continents, when non-nil, gives each serving prefix's region
	// (parallel to Prefixes): the resolver maps clients to the prefix
	// serving their continent, as CDN DNS does.
	Continents []geo.Continent
}

// Cache is an off-net replica deployed inside a host AS.
type Cache struct {
	Provider asn.ASN
	HostAS   asn.ASN
	Prefix   asn.Prefix // addressed from the HOST AS's space
}

// SOARecord ties a mail/web domain to its authoritative zone.
type SOARecord struct {
	Domain string // e.g. "dishaccess.example"
	Zone   string // e.g. "dishnetwork.example"
}

// DB is the queryable DNS database.
type DB struct {
	hosts  map[string]*Hostname
	caches map[asn.ASN][]Cache // provider -> replicas
	soa    map[string]string   // domain -> zone
}

// New returns an empty DNS database.
func New() *DB {
	return &DB{
		hosts:  make(map[string]*Hostname),
		caches: make(map[asn.ASN][]Cache),
		soa:    make(map[string]string),
	}
}

// AddHostname registers a content hostname.
func (d *DB) AddHostname(h Hostname) error {
	if h.Name == "" || h.Provider.IsZero() {
		return fmt.Errorf("dnsdb: hostname needs a name and provider AS")
	}
	if h.Kind == OnNet && len(h.Prefixes) == 0 {
		return fmt.Errorf("dnsdb: on-net hostname %q needs serving prefixes", h.Name)
	}
	if h.Continents != nil && len(h.Continents) != len(h.Prefixes) {
		return fmt.Errorf("dnsdb: hostname %q has %d continents for %d prefixes",
			h.Name, len(h.Continents), len(h.Prefixes))
	}
	cp := h
	cp.Prefixes = append([]asn.Prefix(nil), h.Prefixes...)
	cp.Continents = append([]geo.Continent(nil), h.Continents...)
	d.hosts[h.Name] = &cp
	return nil
}

// AddCache registers an off-net replica for a provider.
func (d *DB) AddCache(c Cache) {
	d.caches[c.Provider] = append(d.caches[c.Provider], c)
}

// AddSOA registers that domain's zone authority.
func (d *DB) AddSOA(r SOARecord) { d.soa[r.Domain] = r.Zone }

// Zone returns the authoritative zone for a domain, or the domain itself
// when no explicit SOA record exists (a domain is its own zone).
func (d *DB) Zone(domain string) string {
	if z, ok := d.soa[domain]; ok {
		return z
	}
	return domain
}

// Hostnames returns all registered hostnames sorted by name.
func (d *DB) Hostnames() []Hostname {
	out := make([]Hostname, 0, len(d.hosts))
	for _, h := range d.hosts {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ServingPrefixes returns every prefix Resolve can draw an answer from —
// the hostnames' on-net serving prefixes and the off-net caches' —
// sorted, each once: where the campaign's traceroutes can be sent.
func (d *DB) ServingPrefixes() []asn.Prefix {
	var out []asn.Prefix
	for _, h := range d.hosts {
		out = append(out, h.Prefixes...)
	}
	for _, cs := range d.caches {
		for _, c := range cs {
			out = append(out, c.Prefix)
		}
	}
	slices.SortFunc(out, func(a, b asn.Prefix) int {
		return cmp.Or(cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.Len, b.Len))
	})
	return slices.Compact(out)
}

// Answer is a resolved hostname: the address to traceroute to and the AS
// that actually serves it (which, for off-net caches, is not the
// provider).
type Answer struct {
	Addr    asn.Addr
	ServeAS asn.ASN
}

// Resolve answers a DNS query from a probe in clientAS (on clientCont,
// ContinentNone when unknown) whose provider chain is upstreams (nearest
// first). Off-net hostnames prefer a cache in the client's own AS, then
// in an upstream, then fall back to on-net. On-net answers prefer the
// serving prefix regionalized to the client's continent. rng breaks the
// remaining ties deterministically.
func (d *DB) Resolve(name string, clientAS asn.ASN, clientCont geo.Continent, upstreams []asn.ASN, rng *rand.Rand) (Answer, error) {
	h, ok := d.hosts[name]
	if !ok {
		return Answer{}, fmt.Errorf("dnsdb: NXDOMAIN %q", name)
	}
	// Host addresses sit at offsets 1024+ so they stay clear of router
	// infrastructure space inside covering prefixes (cache /24s wrap
	// the offset harmlessly).
	hostOff := func() uint32 { return 1024 + uint32(rng.Intn(2048)) }
	if h.Kind == OffNet {
		if c, ok := d.findCache(h.Provider, clientAS); ok {
			return Answer{Addr: c.Prefix.Nth(hostOff()), ServeAS: c.HostAS}, nil
		}
		for _, up := range upstreams {
			if c, ok := d.findCache(h.Provider, up); ok {
				return Answer{Addr: c.Prefix.Nth(hostOff()), ServeAS: c.HostAS}, nil
			}
		}
	}
	if len(h.Prefixes) == 0 {
		return Answer{}, fmt.Errorf("dnsdb: %q has no on-net prefixes and no reachable cache", name)
	}
	// Regional prefix selection.
	if clientCont != geo.ContinentNone && len(h.Continents) == len(h.Prefixes) {
		var regional []asn.Prefix
		for i, c := range h.Continents {
			if c == clientCont {
				regional = append(regional, h.Prefixes[i])
			}
		}
		if len(regional) > 0 {
			p := regional[rng.Intn(len(regional))]
			return Answer{Addr: p.Nth(hostOff()), ServeAS: h.Provider}, nil
		}
	}
	p := h.Prefixes[rng.Intn(len(h.Prefixes))]
	return Answer{Addr: p.Nth(hostOff()), ServeAS: h.Provider}, nil
}

func (d *DB) findCache(provider, host asn.ASN) (Cache, bool) {
	for _, c := range d.caches[provider] {
		if c.HostAS == host {
			return c, true
		}
	}
	return Cache{}, false
}

// CacheHosts returns the ASes hosting caches for a provider, sorted.
func (d *DB) CacheHosts(provider asn.ASN) []asn.ASN {
	var out []asn.ASN
	for _, c := range d.caches[provider] {
		out = append(out, c.HostAS)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
