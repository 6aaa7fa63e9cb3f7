package whatif_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/peering"
	"routelab/internal/topology"
	"routelab/internal/whatif"
)

// oracleDeltas is the deterministic delta set the oracle replays on
// every seed: one of each kind, each chosen so it moves at least one
// route on base — the link and local-pref deltas hit the live mux
// uplink, the new peering is the first pair whose link changes a best
// path — so the differential never compares two empty diffs.
func oracleDeltas(t *testing.T, topo *topology.Topology, tb *peering.Testbed, base *bgp.Base) []*whatif.Compiled {
	t.Helper()
	origin := tb.Origin
	mux0, mux1 := tb.Muxes[0], tb.Muxes[1%len(tb.Muxes)]
	live := liveMux(t, tb, base)
	peering := func(a, b asn.ASN) whatif.Delta {
		return whatif.Delta{Kind: whatif.NewPeering, A: a.String(), B: b.String(), Rel: "provider"}
	}
	pa, pb := peeringPair(t, topo, func(a, b asn.ASN) bool {
		cd, err := whatif.Compile(peering(a, b), topo, origin)
		if err != nil {
			return false
		}
		d, err := whatif.Eval(base, cd)
		return err == nil && d.Affected > 0
	})
	ds := []whatif.Delta{
		{Kind: whatif.LinkFailure, A: origin.String(), B: live.String()},
		peering(pa, pb),
		{Kind: whatif.Poison, Poisoned: []string{mux0.String()}},
		{Kind: whatif.Poison, Poisoned: []string{mux1.String(), mux0.String()}},
		{Kind: whatif.Prepend, Prepend: 3},
		{Kind: whatif.LocalPref, At: live.String(), From: origin.String(), Pref: 10},
		{Kind: whatif.Withdraw},
	}
	cds, err := whatif.CompileAll(ds, topo, origin)
	if err != nil {
		t.Fatal(err)
	}
	return cds
}

// TestForkDiffMatchesRebuildDiff is the differential oracle the tentpole
// rests on: for every delta kind, the diff computed the cheap way (COW
// fork of the frozen base, incremental reconvergence) must equal the
// diff of two from-scratch builds — one replaying only the base
// announcement, one replaying base + delta. PR 5's fork suite pins
// fork ≡ replay at the full-state level; this pins the derived Diff
// (including churn counters) at the API level, across ≥4 seeds, under
// -race via make verify. Equal Events is also the machine-independent
// half of "incremental is cheaper": the fork re-processes exactly the
// events the delta causes on a from-scratch twin, no more — and every
// delta must cause some, so the equality is never 0 == 0.
func TestForkDiffMatchesRebuildDiff(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			topo, engine, tb := world(t, seed)
			p := tb.Prefixes[0]
			base := tb.AnycastBase(p)
			for _, cd := range oracleDeltas(t, topo, tb, base) {
				forked, err := whatif.Eval(base, cd)
				if err != nil {
					t.Fatalf("%s: fork eval: %v", cd.Canonical(), err)
				}
				t.Logf("%s: affected=%d events=%d churn=%d", cd.Canonical(), forked.Affected, forked.Events, forked.Churn)
				if forked.Affected == 0 || forked.Events == 0 {
					t.Errorf("%s is a no-op on this world: the oracle would compare two empty diffs", cd.Canonical())
				}

				// From-scratch twins: one stays at the base announcement,
				// the other continues into the delta. Neither shares any
				// state with the fork path.
				before := scratchBase(t, engine, p, tb.Origin)
				after := scratchBase(t, engine, p, tb.Origin)
				rebuilt, err := whatif.EvalOn(after, before.Freeze(), cd)
				if err != nil {
					t.Fatalf("%s: rebuild eval: %v", cd.Canonical(), err)
				}

				if !reflect.DeepEqual(forked, rebuilt) {
					t.Errorf("%s: fork-diff != rebuild-diff\nfork:    %+v\nrebuild: %+v",
						cd.Canonical(), forked, rebuilt)
				}
			}
		})
	}
}

// TestConcurrentEvalsShareOneBase pins the batch contract: any number
// of evaluations may fork one frozen base concurrently, and each
// produces the identical diff.
func TestConcurrentEvalsShareOneBase(t *testing.T) {
	topo, _, tb := world(t, 1)
	p := tb.Prefixes[0]
	base := tb.AnycastBase(p)
	cd, err := whatif.Compile(
		whatif.Delta{Kind: whatif.Poison, Poisoned: []string{tb.Muxes[0].String()}},
		topo, tb.Origin)
	if err != nil {
		t.Fatal(err)
	}
	want, err := whatif.Eval(base, cd)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	diffs := make([]whatif.Diff, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			diffs[w], errs[w] = whatif.Eval(base, cd)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(diffs[w], want) {
			t.Fatalf("worker %d diff diverges:\n%+v\nwant %+v", w, diffs[w], want)
		}
	}
}
