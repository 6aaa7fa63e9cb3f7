// Package geo models the geographic substrate of the synthetic Internet:
// continents, countries, and cities. The paper's geography analyses
// (continental vs intercontinental paths, domestic-path preference,
// undersea cables) all key off this package.
//
// The world is generated deterministically from a seed so that every
// experiment run is reproducible. Country codes are synthetic two-letter
// codes; they play the role of the ISO codes found in whois records.
package geo

import (
	"fmt"
	"math/rand"
)

// Continent identifies one of the six populated continents, using the
// paper's Figure 3 abbreviations.
type Continent uint8

const (
	// ContinentNone marks an unknown location.
	ContinentNone Continent = iota
	AF                      // Africa
	NA                      // North America
	EU                      // Europe
	SA                      // South America
	AS                      // Asia
	OC                      // Oceania
)

// Continents lists the populated continents in the order the paper's
// Figure 3 reports them (Oceania is measured in Table 3 only).
var Continents = []Continent{AF, NA, EU, SA, AS, OC}

// String returns the paper's two-letter continent code.
func (c Continent) String() string {
	switch c {
	case AF:
		return "AF"
	case NA:
		return "NA"
	case EU:
		return "EU"
	case SA:
		return "SA"
	case AS:
		return "AS"
	case OC:
		return "OC"
	default:
		return "??"
	}
}

// Name returns the continent's full English name.
func (c Continent) Name() string {
	switch c {
	case AF:
		return "Africa"
	case NA:
		return "North America"
	case EU:
		return "Europe"
	case SA:
		return "South America"
	case AS:
		return "Asia"
	case OC:
		return "Oceania"
	default:
		return "Unknown"
	}
}

// CountryCode is a synthetic two-letter country identifier, unique within
// the world. The zero value "" means unknown.
type CountryCode string

// CityID identifies a city within a World. IDs start at 1; 0 is unknown.
type CityID uint16

// Country is one country of the synthetic world.
type Country struct {
	Code      CountryCode
	Continent Continent
	Cities    []CityID
}

// City is one city of the synthetic world.
type City struct {
	ID        CityID
	Name      string
	Country   CountryCode
	Continent Continent
}

// World holds the generated geography and answers location queries.
type World struct {
	countries map[CountryCode]*Country
	cities    []City // index CityID-1
	byCont    map[Continent][]CountryCode
}

// Config sizes the generated world. The zero value is replaced by
// DefaultConfig.
type Config struct {
	// CountriesPerContinent maps each continent to its country count.
	CountriesPerContinent map[Continent]int
	// MinCities and MaxCities bound the cities generated per country.
	MinCities, MaxCities int
}

// DefaultConfig mirrors the real world's rough country distribution; the
// exact counts only matter in that Table 1 and Table 3 report per-country
// and per-continent aggregates.
func DefaultConfig() Config {
	return Config{
		CountriesPerContinent: map[Continent]int{
			AF: 30, NA: 18, EU: 40, SA: 12, AS: 34, OC: 8,
		},
		MinCities: 1,
		MaxCities: 7,
	}
}

// NewWorld generates a world from cfg using rng. Passing a zero Config
// selects DefaultConfig.
func NewWorld(rng *rand.Rand, cfg Config) *World {
	if cfg.CountriesPerContinent == nil {
		cfg = DefaultConfig()
	}
	w := &World{
		countries: make(map[CountryCode]*Country),
		byCont:    make(map[Continent][]CountryCode),
	}
	code := 0
	for _, cont := range Continents {
		n := cfg.CountriesPerContinent[cont]
		for i := 0; i < n; i++ {
			cc := CountryCode(fmt.Sprintf("%c%c", 'A'+code/26, 'A'+code%26))
			code++
			c := &Country{Code: cc, Continent: cont}
			nc := cfg.MinCities
			if cfg.MaxCities > cfg.MinCities {
				nc += rng.Intn(cfg.MaxCities - cfg.MinCities + 1)
			}
			for j := 0; j < nc; j++ {
				id := CityID(len(w.cities) + 1)
				w.cities = append(w.cities, City{
					ID:        id,
					Name:      fmt.Sprintf("%s-%02d", cc, j+1),
					Country:   cc,
					Continent: cont,
				})
				c.Cities = append(c.Cities, id)
			}
			w.countries[cc] = c
			w.byCont[cont] = append(w.byCont[cont], cc)
		}
	}
	return w
}

// Countries returns the country codes of a continent, in generation order.
func (w *World) Countries(c Continent) []CountryCode { return w.byCont[c] }

// AllCountries returns every country code, grouped by continent in the
// canonical continent order.
func (w *World) AllCountries() []CountryCode {
	var out []CountryCode
	for _, c := range Continents {
		out = append(out, w.byCont[c]...)
	}
	return out
}

// Country returns the country record, or nil if unknown.
func (w *World) Country(cc CountryCode) *Country { return w.countries[cc] }

// City returns the city record; the zero City is returned for unknown IDs.
func (w *World) City(id CityID) City {
	if id == 0 || int(id) > len(w.cities) {
		return City{}
	}
	return w.cities[id-1]
}

// ContinentOf returns the continent of a city, or ContinentNone.
func (w *World) ContinentOf(id CityID) Continent { return w.City(id).Continent }

// CountryOf returns the country of a city, or "".
func (w *World) CountryOf(id CityID) CountryCode { return w.City(id).Country }

// Intercontinental reports whether two cities are on different (known)
// continents; crossing between them requires an undersea cable or a very
// long terrestrial haul.
func (w *World) Intercontinental(a, b CityID) bool {
	ca, cb := w.ContinentOf(a), w.ContinentOf(b)
	return ca != ContinentNone && cb != ContinentNone && ca != cb
}
