// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver consumes a shared scenario.Scenario
// and computes a structured Result carrying the same rows/series the
// paper reports; Render turns a Result into the fixed-width text report
// (EXPERIMENTS.md records the side-by-side comparison with the
// published numbers), and cmd/routelabd serves the same Results as
// JSON. See registry.go for the dispatch API.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"routelab/internal/asn"
	"routelab/internal/atlas"
	"routelab/internal/classify"
	"routelab/internal/geo"
	"routelab/internal/parallel"
	"routelab/internal/report"
	"routelab/internal/stats"
	"routelab/internal/topology"
)

// --- Table 1 ----------------------------------------------------------

// Table1Row is one AS class's probe-distribution row.
type Table1Row struct {
	Class     string `json:"class"`
	Probes    int    `json:"probes"`
	ASes      int    `json:"ases"`
	Countries int    `json:"countries"`
}

// Table1Result reports the distribution of selected probes by AS class
// (paper §3.1, Table 1), using the degree-based categorization.
type Table1Result struct {
	Rows        []Table1Row `json:"rows"`
	TotalProbes int         `json:"total_probes"`
	TotalASes   int         `json:"total_ases"`
}

func table1(_ context.Context, env *Env) (Result, error) {
	s := env.S
	type agg struct {
		probes    int
		ases      map[asn.ASN]bool
		countries map[geo.CountryCode]bool
	}
	perClass := map[topology.Class]*agg{}
	for _, p := range s.Probes {
		cls := atlas.ClassifyByDegree(s.Topo, p.AS)
		a := perClass[cls]
		if a == nil {
			a = &agg{ases: map[asn.ASN]bool{}, countries: map[geo.CountryCode]bool{}}
			perClass[cls] = a
		}
		a.probes++
		a.ases[p.AS] = true
		a.countries[s.Topo.World.CountryOf(p.City)] = true
	}
	res := &Table1Result{}
	totalASes := map[asn.ASN]bool{}
	for _, cls := range []topology.Class{topology.Stub, topology.SmallISP, topology.LargeISP, topology.Tier1} {
		a := perClass[cls]
		if a == nil {
			a = &agg{ases: map[asn.ASN]bool{}, countries: map[geo.CountryCode]bool{}}
		}
		res.Rows = append(res.Rows, Table1Row{
			Class:     cls.String(),
			Probes:    a.probes,
			ASes:      len(a.ases),
			Countries: len(a.countries),
		})
		res.TotalProbes += a.probes
		for x := range a.ases {
			totalASes[x] = true
		}
	}
	res.TotalASes = len(totalASes)
	return res, nil
}

func (r *Table1Result) render(w io.Writer) {
	t := report.NewTable("Table 1: distribution of selected probes",
		"AS type", "Probes", "Distinct ASes", "Distinct Countries")
	for _, row := range r.Rows {
		t.Row(row.Class, row.Probes, row.ASes, row.Countries)
	}
	t.Note("%d probes total in %d ASes (paper: 1,998 probes, 633 ASes)",
		r.TotalProbes, r.TotalASes)
	t.Render(w)
}

// --- Figure 1 ---------------------------------------------------------

// Figure1Row is one refinement column's category shares (legend order:
// Best/Short, NonBest/Short, Best/Long, NonBest/Long), in percent.
type Figure1Row struct {
	Refinement string    `json:"refinement"`
	Shares     []float64 `json:"shares"`
}

// Figure1Result reports the decision breakdown across the refinement
// columns (paper §4, Figure 1).
type Figure1Result struct {
	Decisions       int          `json:"decisions"`
	Traces          int          `json:"traces"`
	DestinationASes int          `json:"destination_ases"`
	Rows            []Figure1Row `json:"rows"`
}

// figure1 classifies the seven columns concurrently (each
// refinement is an independent pass over the decision set, sharing only
// classify.Context's synchronized model caches); rows follow the fixed
// Refinements order, so the figure bytes do not depend on the worker
// count.
func figure1(_ context.Context, env *Env) (Result, error) {
	s := env.S
	ds := s.Decisions()
	res := &Figure1Result{
		Decisions:       len(ds),
		Traces:          len(s.Measurements),
		DestinationASes: s.DestinationASes(),
	}
	breakdowns := parallel.MapStage("experiments/figure1-breakdowns", classify.Refinements, s.Cfg.RoutingWorkers,
		func(_ int, ref classify.Refinement) map[classify.Category]int {
			return s.Context.Breakdown(ds, ref)
		})
	for ri, ref := range classify.Refinements {
		bd := breakdowns[ri]
		total := 0
		for _, n := range bd {
			total += n
		}
		shares := make([]float64, 0, 4)
		for _, cat := range classify.Categories {
			shares = append(shares, stats.Pct(bd[cat], total))
		}
		res.Rows = append(res.Rows, Figure1Row{Refinement: ref.String(), Shares: shares})
	}
	return res, nil
}

func (r *Figure1Result) render(w io.Writer) {
	bars := report.NewStackedBars(
		fmt.Sprintf("Figure 1: routing-decision breakdown (%d decisions from %d traceroutes, %d destination ASes)",
			r.Decisions, r.Traces, r.DestinationASes),
		"Best/Short", "NonBest/Short", "Best/Long", "NonBest/Long")
	t := report.NewTable("Figure 1 (numeric)", "Refinement",
		"Best/Short%", "NonBest/Short%", "Best/Long%", "NonBest/Long%")
	for _, row := range r.Rows {
		bars.Column(row.Refinement, row.Shares...)
		t.Row(row.Refinement, row.Shares[0], row.Shares[1], row.Shares[2], row.Shares[3])
	}
	t.Note("paper: Simple Best/Short 64.7%%, NonBest/Long 8.3%%; All-1 85.7%%, All-2 75.7%%")
	bars.Render(w)
	t.Render(w)
}

// --- Table 2 ----------------------------------------------------------

// Table2Row is one BGP-decision-step row of Table 2.
type Table2Row struct {
	Cause  string `json:"cause"`
	Feeds  int    `json:"feeds"`
	Traces int    `json:"traces"`
}

// Table2Result reports the magnet experiment's decision-step breakdown
// (paper §3.2/§4.4, Table 2) for the feed and traceroute channels.
type Table2Result struct {
	Rows       []Table2Row `json:"rows"`
	FeedTotal  int         `json:"feed_total"`
	TraceTotal int         `json:"trace_total"`
}

func table2(_ context.Context, env *Env) (Result, error) {
	s := env.S
	rng := rand.New(rand.NewSource(env.Seed))
	mc := s.RunMagnetCampaign(rng)
	feed := s.Context.MagnetBreakdown(mc.FeedDecisions)
	trace := s.Context.MagnetBreakdown(mc.TraceDecisions)
	res := &Table2Result{}
	for _, n := range feed {
		res.FeedTotal += n
	}
	for _, n := range trace {
		res.TraceTotal += n
	}
	for _, c := range classify.MagnetCauses {
		res.Rows = append(res.Rows, Table2Row{Cause: c.String(), Feeds: feed[c], Traces: trace[c]})
	}
	return res, nil
}

func (r *Table2Result) render(w io.Writer) {
	t := report.NewTable("Table 2: BGP decisions after anycasting the magnet prefix",
		"BGP decision", "Feeds", "Feeds%", "Traceroutes", "Traceroutes%")
	for _, row := range r.Rows {
		t.Row(row.Cause, row.Feeds, stats.Pct(row.Feeds, r.FeedTotal),
			row.Traces, stats.Pct(row.Traces, r.TraceTotal))
	}
	t.Row("Total", r.FeedTotal, 100.0, r.TraceTotal, 100.0)
	t.Note("paper (feeds): best 46.0%%, shorter 16.0%%, intradomain 16.4%%, oldest 2.5%%, violation 18.9%%")
	t.Note("paper (traceroutes): best 42.4%%, shorter 29.4%%, intradomain 15.6%%, oldest 1.6%%, violation 10.8%%")
	t.Render(w)
}

// --- Figure 2 ---------------------------------------------------------

// Figure2TopRow is one top-violator row of Figure 2's table.
type Figure2TopRow struct {
	Rank  int    `json:"rank"`
	AS    string `json:"as"`
	Class string `json:"class"`
	Count int    `json:"count"`
}

// Figure2Side is one direction (source or destination ASes) of the
// violation-skew analysis.
type Figure2Side struct {
	ByDestination bool            `json:"by_destination"`
	CDF           []float64       `json:"cdf"`
	Top           []Figure2TopRow `json:"top"`
	Total         int             `json:"total"`
	Gini          float64         `json:"gini"`
}

// Figure2Result reports the violation skew across source and
// destination ASes (paper §5, Figure 2).
type Figure2Result struct {
	Sides []Figure2Side `json:"sides"`
}

func figure2(_ context.Context, env *Env) (Result, error) {
	s := env.S
	res := &Figure2Result{}
	for _, byDst := range []bool{false, true} {
		sk := s.Context.ViolationSkew(s.Measurements, classify.Simple, byDst)
		counts := make([]int, len(sk))
		for i, p := range sk {
			counts[i] = p.Count
		}
		side := Figure2Side{
			ByDestination: byDst,
			CDF:           stats.Downsample(stats.CDF(counts), 12),
			Gini:          stats.Gini(counts),
		}
		for _, c := range counts {
			side.Total += c
		}
		for i := 0; i < len(sk) && i < 5; i++ {
			cls := "?"
			if x := s.Topo.AS(sk[i].AS); x != nil {
				cls = x.Class.String()
				// An AS can carry several topology names; Names is a map,
				// so sort the matches to keep the label deterministic.
				var names []string
				for name, a := range s.Topo.Names {
					if a == sk[i].AS {
						names = append(names, name)
					}
				}
				sort.Strings(names)
				for _, name := range names {
					cls += " (" + name + ")"
				}
			}
			side.Top = append(side.Top, Figure2TopRow{
				Rank: i + 1, AS: sk[i].AS.String(), Class: cls, Count: sk[i].Count,
			})
		}
		res.Sides = append(res.Sides, side)
	}
	return res, nil
}

func (r *Figure2Result) render(w io.Writer) {
	for _, side := range r.Sides {
		kind := "source"
		if side.ByDestination {
			kind = "destination"
		}
		report.Series(w, fmt.Sprintf("Figure 2 CDF of violations across %s ASes (ranked)", kind),
			side.CDF)
		t := report.NewTable(fmt.Sprintf("Figure 2: top %s ASes by violation share", kind),
			"Rank", "AS", "Class", "Violations", "Share%")
		for _, row := range side.Top {
			t.Row(row.Rank, row.AS, row.Class, row.Count, stats.Pct(row.Count, side.Total))
		}
		t.Note("gini=%.2f", side.Gini)
		if side.ByDestination {
			t.Note("paper: Akamai 21%%, Netflix 17%% of destination-side violations")
		} else {
			t.Note("paper: Cogent 4.1%%, Time Warner 2.2%% of source-side violations")
		}
		t.Render(w)
	}
}

// --- Figure 3 ---------------------------------------------------------

// Figure3Column is one stacked bar of the geography breakdown.
type Figure3Column struct {
	Label  string    `json:"label"`
	Shares []float64 `json:"shares"`
}

// Figure3Result reports the per-continent decision breakdown (paper §6,
// Figure 3).
type Figure3Result struct {
	Columns []Figure3Column `json:"columns"`
	// ContinentalPct is the share of decisions on single-continent
	// traceroutes.
	ContinentalPct float64 `json:"continental_pct"`
}

func figure3(_ context.Context, env *Env) (Result, error) {
	s := env.S
	gb := s.Context.GeoClassify(s.Measurements, classify.Simple)
	res := &Figure3Result{}
	emit := func(label string, counts map[classify.Category]int) {
		total := 0
		for _, n := range counts {
			total += n
		}
		if total == 0 {
			return
		}
		shares := make([]float64, 0, 4)
		for _, cat := range classify.Categories {
			shares = append(shares, stats.Pct(counts[cat], total))
		}
		res.Columns = append(res.Columns, Figure3Column{
			Label:  fmt.Sprintf("%s (n=%d)", label, total),
			Shares: shares,
		})
	}
	for _, cont := range []geo.Continent{geo.AF, geo.NA, geo.EU, geo.SA, geo.AS} {
		emit(cont.String(), gb.PerContinent[cont])
	}
	emit("Cont", gb.Continental)
	emit("NonCont", gb.Intercontinental)
	contTotal, interTotal := 0, 0
	for _, n := range gb.Continental {
		contTotal += n
	}
	for _, n := range gb.Intercontinental {
		interTotal += n
	}
	res.ContinentalPct = stats.Pct(contTotal, contTotal+interTotal)
	return res, nil
}

func (r *Figure3Result) render(w io.Writer) {
	bars := report.NewStackedBars("Figure 3: decisions by traceroute geography",
		"Best/Short", "NonBest/Short", "Best/Long", "NonBest/Long")
	for _, c := range r.Columns {
		bars.Column(c.Label, c.Shares...)
	}
	bars.Render(w)
	fmt.Fprintf(w, "continental decisions: %.1f%% of dataset (paper: ~45%%)\n\n",
		r.ContinentalPct)
}

// --- Table 3 ----------------------------------------------------------

// Table3Row is one continent's domestic-preference attribution row.
type Table3Row struct {
	Continent    string `json:"continent"`
	NonBestShort int    `json:"nonbest_short"`
	Explained    int    `json:"explained"`
}

// Table3Result reports the share of NonBest/Short decisions explained
// by domestic-path preference (paper §6, Table 3).
type Table3Result struct {
	Rows              []Table3Row `json:"rows"`
	TotalNonBestShort int         `json:"total_nonbest_short"`
	TotalExplained    int         `json:"total_explained"`
}

func table3(_ context.Context, env *Env) (Result, error) {
	s := env.S
	rows := s.Context.DomesticAnalysis(s.Measurements, classify.Simple)
	res := &Table3Result{}
	for _, r := range rows {
		res.Rows = append(res.Rows, Table3Row{
			Continent:    r.Continent.Name(),
			NonBestShort: r.NonBestShort,
			Explained:    r.Explained,
		})
		res.TotalNonBestShort += r.NonBestShort
		res.TotalExplained += r.Explained
	}
	return res, nil
}

func (r *Table3Result) render(w io.Writer) {
	t := report.NewTable("Table 3: NonBest/Short decisions explained by intra-country preference",
		"Continent", "NonBest/Short", "Explained", "Explained%")
	for _, row := range r.Rows {
		t.Row(row.Continent, row.NonBestShort, row.Explained, stats.Pct(row.Explained, row.NonBestShort))
	}
	t.Row("All", r.TotalNonBestShort, r.TotalExplained, stats.Pct(r.TotalExplained, r.TotalNonBestShort))
	t.Note("paper: >40%% of such decisions explained overall")
	t.Render(w)
}

// --- Table 4 ----------------------------------------------------------

// Table4Row is one violation category's undersea-cable attribution row.
type Table4Row struct {
	Category  string `json:"category"`
	Total     int    `json:"total"`
	WithCable int    `json:"with_cable"`
}

// Table4Result reports the undersea-cable attribution (paper §6,
// Table 4).
type Table4Result struct {
	Rows []Table4Row `json:"rows"`
	// PathsWithCable / TotalPaths give the "<2% of paths" figure;
	// CableDeviations / CableDecisions the "51.2% deviate" figure.
	PathsWithCable  int `json:"paths_with_cable"`
	TotalPaths      int `json:"total_paths"`
	CableDeviations int `json:"cable_deviations"`
	CableDecisions  int `json:"cable_decisions"`
}

func table4(_ context.Context, env *Env) (Result, error) {
	s := env.S
	st := s.Context.CableAnalysis(s.Measurements, classify.Simple)
	res := &Table4Result{
		PathsWithCable:  st.PathsWithCable,
		TotalPaths:      st.TotalPaths,
		CableDeviations: st.CableDeviations,
		CableDecisions:  st.CableDecisions,
	}
	for _, r := range st.Rows {
		if !r.Category.IsViolation() {
			continue
		}
		res.Rows = append(res.Rows, Table4Row{
			Category: r.Category.String(), Total: r.Total, WithCable: r.WithCable,
		})
	}
	return res, nil
}

func (r *Table4Result) render(w io.Writer) {
	t := report.NewTable("Table 4: decisions attributable to undersea-cable ASes",
		"Violation type", "Decisions", "With cable", "Explained%")
	for _, row := range r.Rows {
		t.Row(row.Category, row.Total, row.WithCable, stats.Pct(row.WithCable, row.Total))
	}
	t.Note("cable ASes on %.1f%% of paths (paper: <2%%)", stats.Pct(r.PathsWithCable, r.TotalPaths))
	t.Note("%.1f%% of cable-involved decisions deviate (paper: 51.2%%)",
		stats.Pct(r.CableDeviations, r.CableDecisions))
	t.Note("paper: NonBest&Short 3.0%%, Best&Long 6.5%%, NonBest&Long 4.5%%")
	t.Render(w)
}

// --- §4.3 validation --------------------------------------------------

// PSPResult reports the §4.3 validation of prefix-specific-policy
// inferences against operator looking glasses.
type PSPResult struct {
	Cases           int `json:"cases"`
	NeighborsWithLG int `json:"neighbors_with_lg"`
	Checked         int `json:"checked"`
	Confirmed       int `json:"confirmed"`
}

func pspValidation(_ context.Context, env *Env) (Result, error) {
	s := env.S
	cases := s.Context.CollectPSPCases(s.Measurements)
	v := s.Context.ValidatePSP(cases, s.LookingGlasses)
	return &PSPResult{
		Cases:           v.Cases,
		NeighborsWithLG: v.NeighborsWithLG,
		Checked:         v.Checked,
		Confirmed:       v.Confirmed,
	}, nil
}

func (r *PSPResult) render(w io.Writer) {
	t := report.NewTable("Section 4.3 validation: prefix-specific policies vs looking glasses",
		"Metric", "Value")
	t.Row("PSP cases (Criteria 1)", r.Cases)
	t.Row("Masked-edge neighbors with a looking glass", r.NeighborsWithLG)
	t.Row("Cases checked", r.Checked)
	t.Row("Cases confirmed", r.Confirmed)
	t.Row("Confirmed %", stats.Pct(r.Confirmed, r.Checked))
	t.Note("paper: 63 cases, 149 neighbors, LGs in 28, Criteria 1 correct 78%% of checked cases")
	t.Render(w)
}

// --- §4.4 alternates --------------------------------------------------

// AlternatesRow is one preference-order verdict's tally.
type AlternatesRow struct {
	Verdict string `json:"verdict"`
	Targets int    `json:"targets"`
}

// AlternatesResult reports the §4.4 alternate-route discovery campaign.
type AlternatesResult struct {
	Rows          []AlternatesRow `json:"rows"`
	Targets       int             `json:"targets"`
	Announcements int             `json:"announcements"`
	LinksObserved int             `json:"links_observed"`
	LinksMissing  int             `json:"links_missing"`
	// LinksOnlyPoisoned is the subset of missing links visible only
	// after poisoning forced an alternate (the "22.2%" of §3.2).
	LinksOnlyPoisoned int `json:"links_only_poisoned"`
}

func alternates(_ context.Context, env *Env) (Result, error) {
	s := env.S
	rng := rand.New(rand.NewSource(env.Seed + 1))
	runs := s.RunAlternatesCampaign(rng)
	sum := s.Context.SummarizeAlternates(runs)
	res := &AlternatesResult{
		Targets:           sum.Targets,
		Announcements:     sum.Announcements,
		LinksObserved:     sum.LinksObserved,
		LinksMissing:      sum.LinksMissing,
		LinksOnlyPoisoned: sum.LinksOnlyPoisoned,
	}
	for _, v := range []classify.AlternateVerdict{classify.AltBestShort, classify.AltBestOnly, classify.AltShortOnly, classify.AltNeither} {
		res.Rows = append(res.Rows, AlternatesRow{Verdict: v.String(), Targets: sum.Verdicts[v]})
	}
	return res, nil
}

func (r *AlternatesResult) render(w io.Writer) {
	t := report.NewTable("Section 4.4: alternate-route preference orders",
		"Verdict", "Targets", "Share%")
	for _, row := range r.Rows {
		t.Row(row.Verdict, row.Targets, stats.Pct(row.Targets, r.Targets))
	}
	t.Row("Total", r.Targets, 100.0)
	t.Note("%d distinct announcements (paper: 188 for 360 targets)", r.Announcements)
	t.Note("%d inter-AS links observed; %d absent from inferred topology; %d (%.1f%%) visible only via poisoning",
		r.LinksObserved, r.LinksMissing, r.LinksOnlyPoisoned,
		stats.Pct(r.LinksOnlyPoisoned, r.LinksMissing))
	t.Note("paper: 86.1%% both, 8.0%% best only, 5.0%% shortest only, 0.8%% neither; 739 links, 45 missing, 22.2%% poison-only")
	t.Render(w)
}
