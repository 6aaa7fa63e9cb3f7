package classify

import (
	"sort"

	"routelab/internal/asn"
	"routelab/internal/geo"
)

// GeoBreakdown partitions decisions by their measurement's geography and
// classifies each group — Figure 3.
type GeoBreakdown struct {
	// PerContinent holds decision categories for traceroutes confined to
	// one continent.
	PerContinent map[geo.Continent]map[Category]int
	// Continental pools every single-continent decision.
	Continental map[Category]int
	// Intercontinental pools the rest.
	Intercontinental map[Category]int
}

// GeoClassify computes Figure 3 under a refinement.
func (cx *Context) GeoClassify(ms []Measurement, ref Refinement) GeoBreakdown {
	gb := GeoBreakdown{
		PerContinent:     make(map[geo.Continent]map[Category]int),
		Continental:      make(map[Category]int),
		Intercontinental: make(map[Category]int),
	}
	for i := range ms {
		m := &ms[i]
		cont, confined := m.Continental(cx.World)
		for _, d := range m.Decisions {
			cat := cx.Classify(d, ref)
			if confined {
				pc := gb.PerContinent[cont]
				if pc == nil {
					pc = make(map[Category]int)
					gb.PerContinent[cont] = pc
				}
				pc[cat]++
				gb.Continental[cat]++
			} else {
				gb.Intercontinental[cat]++
			}
		}
	}
	return gb
}

// DomesticRow is one Table 3 row: how many NonBest/Short decisions on
// single-country traceroutes are explained by the AS preferring a
// domestic route although a better multinational path existed.
type DomesticRow struct {
	Continent geo.Continent
	// NonBestShort counts the continent's NonBest/Short decisions on
	// single-country traces.
	NonBestShort int
	// Explained counts those with a better multinational model path.
	Explained int
}

// DomesticAnalysis computes Table 3 (§6 "Domestic paths"): for every
// NonBest/Short decision whose whole traceroute stayed in one country,
// check whether the model offers a Best/Short path that is multinational
// — containing at least one AS whois-registered outside the source and
// destination ASes' countries.
func (cx *Context) DomesticAnalysis(ms []Measurement, ref Refinement) []DomesticRow {
	rows := make(map[geo.Continent]*DomesticRow)
	for i := range ms {
		m := &ms[i]
		country, single := m.SingleCountry(cx.World)
		if !single {
			continue
		}
		cont := cx.World.Country(country).Continent
		row := rows[cont]
		if row == nil {
			row = &DomesticRow{Continent: cont}
			rows[cont] = row
		}
		srcCountry := cx.Registry.RegisteredCountry(m.SrcAS)
		dstCountry := cx.Registry.RegisteredCountry(m.DstAS)
		for _, d := range m.Decisions {
			if cx.Classify(d, ref) != NonBestShort {
				continue
			}
			row.NonBestShort++
			if cx.hasMultinationalAlternative(d, srcCountry, dstCountry) {
				row.Explained++
			}
		}
	}
	out := make([]DomesticRow, 0, len(rows))
	for _, cont := range []geo.Continent{geo.AS, geo.AF, geo.EU, geo.NA, geo.OC, geo.SA} {
		if r, ok := rows[cont]; ok {
			out = append(out, *r)
		}
	}
	return out
}

// hasMultinationalAlternative checks whether the model's shortest
// Best-class path from the decision point crosses a foreign-registered
// AS (per whois — which, as §6 notes, is itself lossy for multinational
// ASes).
func (cx *Context) hasMultinationalAlternative(d Decision, srcCountry, dstCountry geo.CountryCode) bool {
	res := cx.gr(d.DstAS)
	path := res.ShortestPath(d.At)
	if path == nil {
		return false
	}
	for _, a := range path[1 : len(path)-1] {
		cc := cx.Registry.RegisteredCountry(a)
		if cc != "" && cc != srcCountry && cc != dstCountry {
			return true
		}
	}
	return false
}

// CableRow is a Table 4 row: the share of a violation category
// attributable to undersea-cable ASes.
type CableRow struct {
	Category Category
	// Total decisions of this category.
	Total int
	// WithCable decisions of this category where the deciding AS or the
	// chosen next hop is a cable operator.
	WithCable int
}

// CableStats aggregates Table 4 plus the §6 headline numbers.
type CableStats struct {
	Rows []CableRow
	// PathsWithCable / TotalPaths give the "<2% of paths" figure.
	PathsWithCable, TotalPaths int
	// CableDecisions / CableDeviations give the "51.2% of decisions
	// involving cable ASes deviate" figure.
	CableDecisions, CableDeviations int
}

// CableAnalysis computes Table 4 under a refinement.
func (cx *Context) CableAnalysis(ms []Measurement, ref Refinement) CableStats {
	var st CableStats
	perCat := map[Category]*CableRow{}
	for _, c := range Categories {
		perCat[c] = &CableRow{Category: c}
	}
	for i := range ms {
		m := &ms[i]
		st.TotalPaths++
		onPath := false
		for _, a := range m.ASPath {
			if cx.CableASes[a] {
				onPath = true
			}
		}
		if onPath {
			st.PathsWithCable++
		}
		for _, d := range m.Decisions {
			cat := cx.Classify(d, ref)
			row := perCat[cat]
			row.Total++
			involved := cx.CableASes[d.At] || cx.CableASes[d.Via]
			if involved {
				row.WithCable++
				st.CableDecisions++
				if cat.IsViolation() {
					st.CableDeviations++
				}
			}
		}
	}
	for _, c := range Categories {
		st.Rows = append(st.Rows, *perCat[c])
	}
	return st
}

// SkewPoint is one AS's share of the violations (Figure 2).
type SkewPoint struct {
	AS    asn.ASN
	Count int
	// PerCategory splits the AS's violations by quadrant.
	PerCategory map[Category]int
}

// ViolationSkew ranks ASes by their share of violating decisions (every
// category but Best/Short). The "source" of a violation is the AS that
// MADE the deviating decision (the paper's Cogent example), not the
// probe host; the destination is the decision's destination AS.
func (cx *Context) ViolationSkew(ms []Measurement, ref Refinement, byDestination bool) []SkewPoint {
	counts := map[asn.ASN]*SkewPoint{}
	for i := range ms {
		m := &ms[i]
		for _, d := range m.Decisions {
			cat := cx.Classify(d, ref)
			if !cat.IsViolation() {
				continue
			}
			key := d.At
			if byDestination {
				key = d.DstAS
			}
			sp := counts[key]
			if sp == nil {
				sp = &SkewPoint{AS: key, PerCategory: make(map[Category]int)}
				counts[key] = sp
			}
			sp.Count++
			sp.PerCategory[cat]++
		}
	}
	out := make([]SkewPoint, 0, len(counts))
	for _, sp := range counts {
		out = append(out, *sp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].AS < out[j].AS
	})
	return out
}
