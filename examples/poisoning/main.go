// Poisoning reproduces the §3.2 active experiment interactively: pick a
// target AS, announce a PEERING prefix via every mux, and repeatedly
// poison the target's chosen next hop to walk down its preference
// order, printing each discovered route and whether the order respects
// the Gao–Rexford properties.
//
// Usage: go run ./examples/poisoning [-seed N] [-targets N]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"routelab/internal/scenario"
)

func main() {
	seed := flag.Int64("seed", 42, "scenario seed")
	targets := flag.Int("targets", 5, "number of targets to probe")
	flag.Parse()

	cfg := scenario.TestConfig()
	cfg.Seed = *seed
	s, err := scenario.Build(cfg, func(_ int, f string, a ...any) {
		fmt.Fprintf(os.Stderr, f+"\n", a...)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "poisoning:", err)
		os.Exit(1)
	}

	fmt.Printf("PEERING testbed: origin %s, muxes %v, prefixes %v\n\n",
		s.Testbed.Origin, s.Testbed.Muxes, s.Testbed.Prefixes)

	runs := s.RunAlternatesCampaign(rand.New(rand.NewSource(*seed)))
	if len(runs) > *targets {
		runs = runs[:*targets]
	}
	for _, run := range runs {
		x := s.Topo.AS(run.Target)
		fmt.Printf("target %s (%s): %d routes discovered with %d announcements\n",
			run.Target, x.Class, len(run.Steps), run.Announcements)
		for i, st := range run.Steps {
			rel := s.Context.Graph.Rel(run.Target, st.Route.NextHop)
			fmt.Printf("  #%d via %-7s inferred-rel=%-8s path=[%s]",
				i+1, st.Route.NextHop, rel, st.Route.Path)
			if len(st.PoisonedSoFar) > 0 {
				fmt.Printf("  (poisoned: %v)", st.PoisonedSoFar)
			}
			fmt.Println()
		}
		verdict := s.Context.ClassifyAlternates(run)
		fmt.Printf("  preference order: %s\n\n", verdict)
	}
}
