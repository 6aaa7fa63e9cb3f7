package geodb

import (
	"testing"

	"routelab/internal/topology"
)

var testTopo = topology.Generate(71, topology.TestConfig())

func TestLocateRouterAddresses(t *testing.T) {
	d := New(testTopo, Config{Seed: 1}) // zero error rates
	for _, a := range testTopo.ASNs()[:60] {
		x := testTopo.AS(a)
		for ci, city := range x.Cities {
			ip := testTopo.RouterIP(a, city, ci%8)
			if ip == 0 {
				continue
			}
			got, ok := d.Locate(ip)
			if !ok {
				t.Fatalf("router %v unlocatable with zero error rates", ip)
			}
			if got != city {
				t.Fatalf("router %v located in %d, want %d", ip, got, city)
			}
		}
	}
}

func TestLocateHostAddresses(t *testing.T) {
	d := New(testTopo, Config{Seed: 1})
	a := testTopo.ASNs()[0]
	x := testTopo.AS(a)
	ip := x.Prefixes[0].Nth(topology.HostOffset(7))
	city, ok := d.Locate(ip)
	if !ok {
		t.Fatal("host address unlocatable")
	}
	if !x.HasCity(city) {
		t.Errorf("host located in %d, not one of the AS's cities", city)
	}
}

func TestIXPUnlocatable(t *testing.T) {
	d := New(testTopo, Config{Seed: 1})
	if _, ok := d.Locate(topology.IXPPrefix(4).Nth(2)); ok {
		t.Error("IXP fabric addresses must be unlocatable")
	}
}

func TestErrorRatesBite(t *testing.T) {
	exact := New(testTopo, Config{Seed: 5})
	noisy := New(testTopo, Config{MissRate: 0.2, WrongCityRate: 0.2, Seed: 5})
	misses, wrong, total := 0, 0, 0
	for _, a := range testTopo.ASNs() {
		x := testTopo.AS(a)
		if len(x.Cities) == 0 {
			continue
		}
		ip := testTopo.RouterIP(a, x.Cities[0], 0)
		if ip == 0 {
			continue
		}
		total++
		truth, _ := exact.Locate(ip)
		got, ok := noisy.Locate(ip)
		switch {
		case !ok:
			misses++
		case got != truth:
			wrong++
			// Errors stay within the same country.
			if testTopo.World.CountryOf(got) != testTopo.World.CountryOf(truth) {
				t.Fatalf("wrong-city error crossed a border: %d vs %d", got, truth)
			}
		}
	}
	if total < 100 {
		t.Fatalf("only %d samples", total)
	}
	if misses == 0 {
		t.Error("MissRate 0.2 produced no misses")
	}
	missFrac := float64(misses) / float64(total)
	if missFrac < 0.1 || missFrac > 0.35 {
		t.Errorf("miss fraction %.2f far from configured 0.2", missFrac)
	}
}

func TestLocateDeterministic(t *testing.T) {
	d := New(testTopo, DefaultConfig())
	a := testTopo.ASNs()[5]
	ip := testTopo.RouterIP(a, testTopo.AS(a).Cities[0], 0)
	c1, ok1 := d.Locate(ip)
	c2, ok2 := d.Locate(ip)
	if c1 != c2 || ok1 != ok2 {
		t.Error("Locate is not deterministic")
	}
}
