package dnsdb

import (
	"math/rand"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/geo"
)

func pfx(s string) asn.Prefix {
	p, err := asn.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func TestResolveOnNet(t *testing.T) {
	d := New()
	err := d.AddHostname(Hostname{
		Name: "www.content.example", Provider: 15169, Kind: OnNet,
		Prefixes: []asn.Prefix{pfx("8.8.8.0/24")},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ans, err := d.Resolve("www.content.example", 64500, geo.ContinentNone, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ans.ServeAS != 15169 {
		t.Errorf("ServeAS = %v, want provider", ans.ServeAS)
	}
	if !pfx("8.8.8.0/24").Contains(ans.Addr) {
		t.Errorf("answer %v outside serving prefix", ans.Addr)
	}
}

func TestResolveOffNetPrefersClientCache(t *testing.T) {
	d := New()
	if err := d.AddHostname(Hostname{
		Name: "cdn.example", Provider: 20940, Kind: OffNet,
		Prefixes: []asn.Prefix{pfx("23.0.0.0/24")},
	}); err != nil {
		t.Fatal(err)
	}
	d.AddCache(Cache{Provider: 20940, HostAS: 64500, Prefix: pfx("10.1.0.0/24")})
	d.AddCache(Cache{Provider: 20940, HostAS: 64501, Prefix: pfx("10.2.0.0/24")})
	rng := rand.New(rand.NewSource(2))

	// Probe inside an AS hosting a cache: answer comes from that AS.
	ans, err := d.Resolve("cdn.example", 64500, geo.ContinentNone, []asn.ASN{64501}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ans.ServeAS != 64500 {
		t.Errorf("ServeAS = %v, want client AS cache", ans.ServeAS)
	}

	// Probe whose upstream hosts a cache: answer from the upstream.
	ans, err = d.Resolve("cdn.example", 64999, geo.ContinentNone, []asn.ASN{64501}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ans.ServeAS != 64501 {
		t.Errorf("ServeAS = %v, want upstream cache", ans.ServeAS)
	}

	// Probe with no nearby cache: falls back to on-net.
	ans, err = d.Resolve("cdn.example", 64999, geo.ContinentNone, []asn.ASN{64998}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ans.ServeAS != 20940 {
		t.Errorf("ServeAS = %v, want provider fallback", ans.ServeAS)
	}
}

func TestResolveNXDOMAIN(t *testing.T) {
	d := New()
	if _, err := d.Resolve("nope.example", 1, geo.ContinentNone, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("want NXDOMAIN error")
	}
}

func TestAddHostnameValidation(t *testing.T) {
	d := New()
	if err := d.AddHostname(Hostname{Name: "", Provider: 1}); err == nil {
		t.Error("empty name accepted")
	}
	if err := d.AddHostname(Hostname{Name: "x", Provider: 0}); err == nil {
		t.Error("zero provider accepted")
	}
	if err := d.AddHostname(Hostname{Name: "x", Provider: 1, Kind: OnNet}); err == nil {
		t.Error("on-net hostname without prefixes accepted")
	}
}

func TestOffNetWithoutFallbackErrors(t *testing.T) {
	d := New()
	if err := d.AddHostname(Hostname{Name: "c.example", Provider: 7, Kind: OffNet}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Resolve("c.example", 1, geo.ContinentNone, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("off-net with no caches and no prefixes should error")
	}
}

func TestZoneSOA(t *testing.T) {
	d := New()
	d.AddSOA(SOARecord{Domain: "dishaccess.example", Zone: "dishnetwork.example"})
	d.AddSOA(SOARecord{Domain: "dish.example", Zone: "dishnetwork.example"})
	if d.Zone("dishaccess.example") != "dishnetwork.example" {
		t.Error("explicit SOA not honored")
	}
	if d.Zone("dish.example") != d.Zone("dishaccess.example") {
		t.Error("sibling domains should share a zone")
	}
	if d.Zone("standalone.example") != "standalone.example" {
		t.Error("domains default to their own zone")
	}
}

func TestHostnamesSorted(t *testing.T) {
	d := New()
	for _, n := range []string{"b.example", "a.example"} {
		if err := d.AddHostname(Hostname{Name: n, Provider: 1, Kind: OnNet, Prefixes: []asn.Prefix{pfx("1.0.0.0/24")}}); err != nil {
			t.Fatal(err)
		}
	}
	hs := d.Hostnames()
	if len(hs) != 2 || hs[0].Name != "a.example" {
		t.Errorf("Hostnames = %v", hs)
	}
}

func TestCacheHosts(t *testing.T) {
	d := New()
	d.AddCache(Cache{Provider: 7, HostAS: 30, Prefix: pfx("10.0.0.0/24")})
	d.AddCache(Cache{Provider: 7, HostAS: 10, Prefix: pfx("10.0.1.0/24")})
	hosts := d.CacheHosts(7)
	if len(hosts) != 2 || hosts[0] != 10 || hosts[1] != 30 {
		t.Errorf("CacheHosts = %v", hosts)
	}
	if len(d.CacheHosts(8)) != 0 {
		t.Error("unknown provider should have no cache hosts")
	}
}

// TestServingPrefixesCoverEveryAnswer pins the enumerator against the
// resolver it describes: hostname serving prefixes and cache prefixes,
// sorted, each once — and every address Resolve hands out, whoever asks,
// lies in one of them.
func TestServingPrefixesCoverEveryAnswer(t *testing.T) {
	d := New()
	for _, h := range []Hostname{
		{Name: "a.example", Provider: 1, Kind: OnNet, Prefixes: []asn.Prefix{pfx("8.8.8.0/24"), pfx("8.8.0.0/18")}},
		{Name: "b.example", Provider: 2, Kind: OffNet, Prefixes: []asn.Prefix{pfx("8.8.8.0/24")}},
		{Name: "c.example", Provider: 3, Kind: OffNet},
	} {
		if err := d.AddHostname(h); err != nil {
			t.Fatal(err)
		}
	}
	d.AddCache(Cache{Provider: 2, HostAS: 64500, Prefix: pfx("10.1.200.0/24")})
	d.AddCache(Cache{Provider: 3, HostAS: 64501, Prefix: pfx("10.2.200.0/24")})
	d.AddCache(Cache{Provider: 3, HostAS: 64500, Prefix: pfx("10.1.200.0/24")})

	got := d.ServingPrefixes()
	want := []asn.Prefix{pfx("8.8.0.0/18"), pfx("8.8.8.0/24"), pfx("10.1.200.0/24"), pfx("10.2.200.0/24")}
	if len(got) != len(want) {
		t.Fatalf("ServingPrefixes() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ServingPrefixes() = %v, want %v", got, want)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for _, h := range d.Hostnames() {
		for _, client := range []asn.ASN{64500, 64501, 64999} {
			ans, err := d.Resolve(h.Name, client, geo.ContinentNone, []asn.ASN{64501}, rng)
			if err != nil {
				continue
			}
			covered := false
			for _, p := range got {
				covered = covered || p.Contains(ans.Addr)
			}
			if !covered {
				t.Errorf("%s from AS%d resolves to %v, outside every serving prefix", h.Name, client, ans.Addr)
			}
		}
	}
}
