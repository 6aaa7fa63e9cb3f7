package classify

import (
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

// GeoClassify computes Figure 3 under Simple, the refinement the paper's
// §5 plots.
func (v *Verdicts) GeoClassify() GeoBreakdown {
	gb := GeoBreakdown{
		PerContinent:     make(map[geo.Continent]map[Category]int),
		Continental:      make(map[Category]int),
		Intercontinental: make(map[Category]int),
	}
	for i := range v.ms {
		cont, confined := v.ms[i].Continental(v.cx.World)
		for _, cat := range v.Of(i, Simple) {
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
// destination ASes' countries. Decisions are read under Simple.
func (v *Verdicts) DomesticAnalysis() []DomesticRow {
	cx := v.cx
	rows := make(map[geo.Continent]*DomesticRow)
	for i := range v.ms {
		m := &v.ms[i]
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
		for j, cat := range v.Of(i, Simple) {
			if cat != NonBestShort {
				continue
			}
			row.NonBestShort++
			if cx.hasMultinationalAlternative(m.Decisions[j], srcCountry, dstCountry) {
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
	path := cx.PredictPath(d.At, d.DstAS)
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

// CableAnalysis computes Table 4 under Simple.
func (v *Verdicts) CableAnalysis() CableStats {
	cables := v.cx.CableASes
	var st CableStats
	perCat := map[Category]*CableRow{}
	for _, c := range Categories {
		perCat[c] = &CableRow{Category: c}
	}
	for i := range v.ms {
		m := &v.ms[i]
		st.TotalPaths++
		onPath := false
		for _, a := range m.ASPath {
			if cables[a] {
				onPath = true
			}
		}
		if onPath {
			st.PathsWithCable++
		}
		for j, cat := range v.Of(i, Simple) {
			d := &m.Decisions[j]
			row := perCat[cat]
			row.Total++
			involved := cables[d.At] || cables[d.Via]
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
