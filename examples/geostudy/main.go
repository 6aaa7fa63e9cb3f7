// Geostudy runs the paper's §6 geography analyses on a synthetic
// Internet: the continental/intercontinental decision split (Figure 3),
// the domestic-path preference attribution (Table 3), and the
// undersea-cable attribution (Table 4) — plus the ground-truth answer
// key the real study never had.
//
// Usage: go run ./examples/geostudy [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"

	"routelab/internal/classify"
	"routelab/internal/geo"
	"routelab/internal/scenario"
	"routelab/internal/stats"
	"routelab/internal/topology"
)

func main() {
	seed := flag.Int64("seed", 42, "scenario seed")
	flag.Parse()

	cfg := scenario.TestConfig()
	cfg.Seed = *seed
	s, err := scenario.Build(cfg, func(_ int, f string, a ...any) {
		fmt.Fprintf(os.Stderr, f+"\n", a...)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "geostudy:", err)
		os.Exit(1)
	}

	gb := s.Verdicts.GeoClassify(classify.Simple)
	fmt.Println("== decision breakdown by geography (Simple model) ==")
	emit := func(label string, counts map[classify.Category]int) {
		total := 0
		for _, n := range counts {
			total += n
		}
		if total == 0 {
			return
		}
		fmt.Printf("%-18s n=%-6d", label, total)
		for _, cat := range classify.Categories {
			fmt.Printf("  %s %5.1f%%", cat, stats.Pct(counts[cat], total))
		}
		fmt.Println()
	}
	for _, cont := range geo.Continents {
		if pc, ok := gb.PerContinent[cont]; ok {
			emit(cont.Name(), pc)
		}
	}
	emit("all continental", gb.Continental)
	emit("intercontinental", gb.Intercontinental)

	fmt.Println("\n== domestic-path preference (Table 3) ==")
	for _, r := range s.Verdicts.DomesticAnalysis(classify.Simple) {
		fmt.Printf("%-14s NonBest/Short=%-4d explained=%-4d (%.0f%%)\n",
			r.Continent.Name(), r.NonBestShort, r.Explained,
			stats.Pct(r.Explained, r.NonBestShort))
	}

	fmt.Println("\n== undersea cables (Table 4) ==")
	st := s.Verdicts.CableAnalysis(classify.Simple)
	fmt.Printf("cable ASes on %.1f%% of measured paths\n", stats.Pct(st.PathsWithCable, st.TotalPaths))
	for _, r := range st.Rows {
		if r.Category.IsViolation() {
			fmt.Printf("%-14s %d/%d decisions involve a cable AS\n",
				r.Category, r.WithCable, r.Total)
		}
	}

	// The answer key: ground-truth policies behind the deviations —
	// something only a simulator can print.
	fmt.Println("\n== ground-truth answer key ==")
	domestic, research, selective := 0, 0, 0
	for _, a := range s.Topo.ASNs() {
		x := s.Topo.AS(a)
		if x.DomesticBias {
			domestic++
		}
		if x.ResearchPreference {
			research++
		}
		selective += len(x.SelectiveExport)
	}
	fmt.Printf("ASes with domestic bias: %d; research preference: %d; selective prefixes: %d\n",
		domestic, research, selective)
	fmt.Printf("undersea cable operators: %d\n", len(s.Topo.ASesOfClass(topology.CableOp)))
}
