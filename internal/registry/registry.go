// Package registry models the whois/RIR data plane of the synthetic
// Internet: organization records with contact e-mail domains and per-AS
// registration records with a single registered country.
//
// Two real-world deficiencies the paper leans on are reproduced here:
//
//   - An AS that operates in many countries still has exactly ONE
//     registered country per RIR record (§6 "whois data still points to
//     just one country"), and an AS registered in several RIRs shows a
//     DIFFERENT country in each, so country attribution from whois is
//     systematically lossy.
//   - Some organizations register contact addresses at shared mail
//     providers, which would cause false sibling merges if used naively
//     (§4.2, Cai et al.); sibling inference must filter these.
package registry

import (
	"fmt"
	"sort"

	"routelab/internal/asn"
	"routelab/internal/geo"
)

// OrgID identifies an organization. The zero value is "no organization".
type OrgID string

// RIR names a regional Internet registry.
type RIR string

// The five regional Internet registries.
const (
	ARIN    RIR = "ARIN"
	RIPE    RIR = "RIPE"
	APNIC   RIR = "APNIC"
	LACNIC  RIR = "LACNIC"
	AFRINIC RIR = "AFRINIC"
)

// RIRForContinent returns the registry responsible for a continent.
func RIRForContinent(c geo.Continent) RIR {
	switch c {
	case geo.NA:
		return ARIN
	case geo.EU:
		return RIPE
	case geo.AS, geo.OC:
		return APNIC
	case geo.SA:
		return LACNIC
	case geo.AF:
		return AFRINIC
	default:
		return ARIN
	}
}

// FreemailDomains lists shared mail providers whose appearance in whois
// contact records carries no organizational signal. Sibling inference
// must skip contacts hosted here (the paper also skips RIR-hosted mail).
var FreemailDomains = map[string]bool{
	"hotmail.example":  true,
	"gmail.example":    true,
	"yahoo.example":    true,
	"ripe.example":     true, // RIR-hosted contact
	"arin.example":     true,
	"registro.example": true,
}

// Org is an organization record.
type Org struct {
	ID   OrgID
	Name string
	// EmailDomains are the mail domains the org registers contacts under.
	// Several domains may belong to one org (dish.com / dishaccess.tv in
	// the paper); DNS SOA records tie them together.
	EmailDomains []string
	Phone        string
}

// ASRecord is the whois record of one AS.
type ASRecord struct {
	ASN asn.ASN
	Org OrgID
	// Country is the single registered country exposed by whois lookups,
	// regardless of how many countries the AS actually operates in.
	Country geo.CountryCode
	// Registry is the RIR holding the primary record.
	Registry RIR
	// Email is the registered contact address ("noc@example.net").
	Email string
}

// EmailDomain returns the domain part of the contact address, or "".
func (r ASRecord) EmailDomain() string {
	for i := len(r.Email) - 1; i >= 0; i-- {
		if r.Email[i] == '@' {
			return r.Email[i+1:]
		}
	}
	return ""
}

// Registry is the queryable whois database.
type Registry struct {
	orgs map[OrgID]*Org
	as   map[asn.ASN]*ASRecord
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{orgs: make(map[OrgID]*Org), as: make(map[asn.ASN]*ASRecord)}
}

// AddOrg registers an organization; re-adding an ID overwrites it.
func (g *Registry) AddOrg(o Org) {
	cp := o
	cp.EmailDomains = append([]string(nil), o.EmailDomains...)
	g.orgs[o.ID] = &cp
}

// AddAS registers an AS record; re-adding an ASN overwrites it.
func (g *Registry) AddAS(r ASRecord) error {
	if r.ASN.IsZero() {
		return fmt.Errorf("registry: refusing to add record for the zero ASN")
	}
	g.as[r.ASN] = &r
	return nil
}

// Whois returns the primary record for an AS.
func (g *Registry) Whois(a asn.ASN) (ASRecord, bool) {
	r, ok := g.as[a]
	if !ok {
		return ASRecord{}, false
	}
	return *r, true
}

// RegisteredCountry returns the whois country of an AS, or "".
func (g *Registry) RegisteredCountry(a asn.ASN) geo.CountryCode {
	if r, ok := g.as[a]; ok {
		return r.Country
	}
	return ""
}

// ASNs returns every registered ASN in ascending order.
func (g *Registry) ASNs() []asn.ASN {
	out := make([]asn.ASN, 0, len(g.as))
	for a := range g.as {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
