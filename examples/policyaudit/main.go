// Policyaudit generates a small synthetic Internet, runs the full
// measurement-and-inference pipeline, and audits ONE autonomous system:
// every routing decision it was observed making, how the Gao–Rexford
// model judges each decision, and which refinement (siblings, complex
// relationships, prefix-specific policies) explains the deviations —
// the per-AS view of the paper's Figure 1 machinery.
//
// Usage: go run ./examples/policyaudit [-seed N] [-as ASN]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"routelab/internal/asn"
	"routelab/internal/classify"
	"routelab/internal/scenario"
)

func main() {
	seed := flag.Int64("seed", 42, "scenario seed")
	target := flag.Uint("as", 0, "ASN to audit (0 = busiest decision maker)")
	flag.Parse()

	cfg := scenario.TestConfig()
	cfg.Seed = *seed
	s, err := scenario.Build(cfg, func(_ int, f string, a ...any) {
		fmt.Fprintf(os.Stderr, f+"\n", a...)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "policyaudit:", err)
		os.Exit(1)
	}

	// Group decisions by the AS that made them.
	byAS := map[asn.ASN][]classify.Decision{}
	for _, d := range s.Decisions() {
		byAS[d.At] = append(byAS[d.At], d)
	}
	audited := asn.ASN(*target)
	if audited.IsZero() {
		for a, ds := range byAS {
			if audited.IsZero() || len(ds) > len(byAS[audited]) {
				audited = a
			}
		}
	}
	ds := byAS[audited]
	if len(ds) == 0 {
		fmt.Fprintf(os.Stderr, "policyaudit: no observed decisions for %s\n", audited)
		os.Exit(1)
	}

	x := s.Topo.AS(audited)
	fmt.Printf("audit of %s (%s, %s): %d observed decisions\n",
		audited, x.Class, x.HomeCountry, len(ds))
	fmt.Printf("ground-truth policies: domestic-bias=%v research-pref=%v selective-prefixes=%d\n\n",
		x.DomesticBias, x.ResearchPreference, len(x.SelectiveExport))

	for _, ref := range classify.Refinements {
		bd := s.Context.Breakdown(ds, ref)
		fmt.Printf("%-8s", ref)
		for _, cat := range classify.Categories {
			fmt.Printf("  %s=%d", cat, bd[cat])
		}
		fmt.Println()
	}

	// Show the worst offenders: destinations this AS deviates toward.
	fmt.Println("\ndeviating decisions (Simple model):")
	type row struct {
		d   classify.Decision
		cat classify.Category
	}
	var rows []row
	for _, d := range ds {
		if cat := s.Context.Classify(d, classify.Simple); cat.IsViolation() {
			rows = append(rows, row{d, cat})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d.DstAS < rows[j].d.DstAS })
	shown := 0
	for _, r := range rows {
		if shown >= 10 {
			fmt.Printf("  ... and %d more\n", len(rows)-shown)
			break
		}
		shown++
		explained := "unexplained"
		if !s.Context.Classify(r.d, classify.All1).IsViolation() {
			explained = "explained by All-1"
		}
		fmt.Printf("  toward %s prefix %s via %s: %s (%s)\n",
			r.d.DstAS, r.d.Prefix, r.d.Via, r.cat, explained)
	}
	if len(rows) == 0 {
		fmt.Println("  none — a model citizen")
	}
}
