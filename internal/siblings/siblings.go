// Package siblings groups ASes into organizations the way §4.2 (after
// Cai et al.) does: by the e-mail domains in whois records — the field
// with the best precision/recall — tied together through DNS SOA
// records, with contacts at shared mail providers and RIR-hosted
// addresses excluded.
//
// The result intentionally differs from ground truth: organizations
// whose whois contacts sit at freemail hosts are invisible here, so a
// residue of sibling-caused "violations" survives even after the Sibs
// refinement — as in the paper.
package siblings

import (
	"routelab/internal/asn"
	"routelab/internal/dnsdb"
	"routelab/internal/registry"
)

// Groups is the inferred AS-to-organization mapping.
type Groups struct {
	// groupOf numbers each grouped AS's organization from 1; the numbers
	// only tell groups apart, and ungrouped ASes are absent.
	groupOf map[asn.ASN]int
}

// Infer builds sibling groups from whois + SOA evidence.
func Infer(reg *registry.Registry, dns *dnsdb.DB) *Groups {
	byZone := make(map[string][]asn.ASN)
	for _, a := range reg.ASNs() {
		rec, ok := reg.Whois(a)
		if !ok {
			continue
		}
		domain := rec.EmailDomain()
		if domain == "" || registry.FreemailDomains[domain] {
			continue
		}
		zone := dns.Zone(domain)
		byZone[zone] = append(byZone[zone], a)
	}
	g := &Groups{groupOf: make(map[asn.ASN]int)}
	id := 0
	for _, ms := range byZone {
		if len(ms) < 2 {
			continue
		}
		id++
		for _, m := range ms {
			g.groupOf[m] = id
		}
	}
	return g
}

// SameOrg reports whether two ASes were inferred to share an
// organization.
func (g *Groups) SameOrg(a, b asn.ASN) bool {
	ga := g.groupOf[a]
	return ga != 0 && ga == g.groupOf[b]
}
