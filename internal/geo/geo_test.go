package geo

import (
	"math/rand"
	"testing"
)

func newTestWorld(seed int64) *World {
	return NewWorld(rand.New(rand.NewSource(seed)), Config{})
}

func TestWorldDeterministic(t *testing.T) {
	a, b := newTestWorld(7), newTestWorld(7)
	if len(a.cities) != len(b.cities) {
		t.Fatalf("same seed, different city counts: %d vs %d", len(a.cities), len(b.cities))
	}
	for i := 1; i <= len(a.cities); i++ {
		if a.City(CityID(i)) != b.City(CityID(i)) {
			t.Fatalf("city %d differs between identical seeds", i)
		}
	}
}

func TestWorldCounts(t *testing.T) {
	w := newTestWorld(1)
	cfg := DefaultConfig()
	total := 0
	for _, cont := range Continents {
		got := len(w.Countries(cont))
		want := cfg.CountriesPerContinent[cont]
		if got != want {
			t.Errorf("%s: %d countries, want %d", cont, got, want)
		}
		total += got
	}
	if len(w.AllCountries()) != total {
		t.Errorf("AllCountries = %d, want %d", len(w.AllCountries()), total)
	}
}

func TestCountryCodesUnique(t *testing.T) {
	w := newTestWorld(2)
	seen := map[CountryCode]bool{}
	for _, cc := range w.AllCountries() {
		if seen[cc] {
			t.Fatalf("duplicate country code %s", cc)
		}
		seen[cc] = true
		if len(cc) != 2 {
			t.Fatalf("country code %q not two letters", cc)
		}
	}
}

func TestCityLookups(t *testing.T) {
	w := newTestWorld(3)
	for _, cont := range Continents {
		for _, cc := range w.Countries(cont) {
			c := w.Country(cc)
			if c == nil {
				t.Fatalf("missing country %s", cc)
			}
			if len(c.Cities) == 0 {
				t.Fatalf("country %s has no cities", cc)
			}
			for _, id := range c.Cities {
				city := w.City(id)
				if city.Country != cc || city.Continent != cont {
					t.Fatalf("city %d misfiled: %+v", id, city)
				}
				if w.CountryOf(id) != cc || w.ContinentOf(id) != cont {
					t.Fatalf("lookup mismatch for city %d", id)
				}
			}
		}
	}
}

func TestUnknownCity(t *testing.T) {
	w := newTestWorld(4)
	if w.City(0) != (City{}) {
		t.Error("City(0) should be zero")
	}
	if w.ContinentOf(0) != ContinentNone || w.CountryOf(0) != "" {
		t.Error("unknown city should have no location")
	}
}

func TestIntercontinental(t *testing.T) {
	w := newTestWorld(5)
	eu := w.Country(w.Countries(EU)[0]).Cities[0]
	eu2 := w.Country(w.Countries(EU)[1]).Cities[0]
	as := w.Country(w.Countries(AS)[0]).Cities[0]
	if w.Intercontinental(eu, eu2) {
		t.Error("two EU cities flagged intercontinental")
	}
	if !w.Intercontinental(eu, as) {
		t.Error("EU-AS pair not flagged intercontinental")
	}
	if w.Intercontinental(eu, 0) {
		t.Error("unknown city must not be intercontinental")
	}
}

func TestContinentStrings(t *testing.T) {
	if AF.String() != "AF" || AF.Name() != "Africa" {
		t.Error("AF strings")
	}
	if ContinentNone.String() != "??" || Continent(99).Name() != "Unknown" {
		t.Error("unknown continent strings")
	}
}
