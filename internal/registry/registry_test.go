package registry

import (
	"testing"

	"routelab/internal/asn"
	"routelab/internal/geo"
)

func TestWhoisRoundTrip(t *testing.T) {
	g := New()
	g.AddOrg(Org{ID: "org-level3", Name: "Level 3", EmailDomains: []string{"level3.example"}})
	rec := ASRecord{
		ASN: 3356, Org: "org-level3", Country: "AA", Registry: ARIN,
		Email: "noc@level3.example",
	}
	if err := g.AddAS(rec); err != nil {
		t.Fatal(err)
	}
	got, ok := g.Whois(3356)
	if !ok {
		t.Fatal("whois miss")
	}
	if got.Org != "org-level3" || got.Country != "AA" {
		t.Fatalf("got %+v", got)
	}
	if got.EmailDomain() != "level3.example" {
		t.Errorf("EmailDomain = %q", got.EmailDomain())
	}
	if _, ok := g.Whois(1); ok {
		t.Error("whois hit for unregistered AS")
	}
}

func TestAddASRejectsZero(t *testing.T) {
	g := New()
	if err := g.AddAS(ASRecord{}); err == nil {
		t.Error("zero ASN accepted")
	}
}

func TestMultiRIRCountries(t *testing.T) {
	g := New()
	err := g.AddAS(ASRecord{
		ASN: 701, Org: "org-vz", Country: "AB", Registry: ARIN,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Whois exposes only the primary country — the paper's limitation.
	if g.RegisteredCountry(701) != "AB" {
		t.Errorf("primary country = %v", g.RegisteredCountry(701))
	}
}

func TestEmailDomainEdge(t *testing.T) {
	if (ASRecord{Email: "no-at-sign"}).EmailDomain() != "" {
		t.Error("want empty domain for malformed email")
	}
	if (ASRecord{}).EmailDomain() != "" {
		t.Error("want empty domain for empty email")
	}
}

func TestRIRForContinent(t *testing.T) {
	cases := map[geo.Continent]RIR{
		geo.NA: ARIN, geo.EU: RIPE, geo.AS: APNIC,
		geo.OC: APNIC, geo.SA: LACNIC, geo.AF: AFRINIC,
	}
	for cont, want := range cases {
		if got := RIRForContinent(cont); got != want {
			t.Errorf("RIRForContinent(%s) = %s, want %s", cont, got, want)
		}
	}
	if RIRForContinent(geo.ContinentNone) != ARIN {
		t.Error("unknown continent should default to ARIN")
	}
}

func TestASNsSortedAndLen(t *testing.T) {
	g := New()
	for _, a := range []asn.ASN{300, 100, 200} {
		if err := g.AddAS(ASRecord{ASN: a, Country: "AA", Registry: ARIN}); err != nil {
			t.Fatal(err)
		}
	}
	got := g.ASNs()
	if len(got) != 3 || got[0] != 100 || got[1] != 200 || got[2] != 300 {
		t.Errorf("ASNs = %v", got)
	}
}

func TestFreemailList(t *testing.T) {
	if !FreemailDomains["hotmail.example"] {
		t.Error("hotmail.example should be freemail")
	}
	if FreemailDomains["level3.example"] {
		t.Error("level3.example should not be freemail")
	}
}
