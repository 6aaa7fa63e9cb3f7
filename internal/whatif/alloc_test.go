package whatif_test

// Allocation ceilings and kernel benchmarks for one what-if evaluation,
// on the same seed-1 world as the engine's (internal/bgp/alloc_test.go).
// The engine's loops allocate a few dozen times and carry absolute
// ceilings; an evaluation allocates thousands of times, nearly all of it
// rendering its diff, so its gate is measured allocs/op + 15 %. Skipped
// under -race. How long an evaluation takes is the ledger's
// whatif.eval_us (bench/).

import (
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/race"
	"routelab/internal/whatif"
)

// evalFixture is the frozen converged anycast of the seed-1 world plus
// one compiled delta that does real work: the live origin uplink
// failing, which re-processes 152 events against the base convergence's
// 413 and moves 151 ASes' routes. (Failing mux-0's uplink, which
// carries no route, costs a Fork and an empty Diff — 21 allocations —
// and measures nothing.)
type evalFixture struct {
	engine *bgp.Engine
	origin asn.ASN
	base   *bgp.Base
	cd     *whatif.Compiled
}

func newEvalFixture(t testing.TB) *evalFixture {
	t.Helper()
	topo, engine, tb := world(t, 1)
	base := tb.AnycastBase(tb.Prefixes[0])
	live := liveMux(t, tb, base)
	cd, err := whatif.Compile(whatif.Delta{Kind: whatif.LinkFailure, A: tb.Origin.String(), B: live.String()}, topo, tb.Origin)
	if err != nil {
		t.Fatal(err)
	}
	return &evalFixture{engine: engine, origin: tb.Origin, base: base, cd: cd}
}

// evalLoops are the two ways to answer the delta, with the allocs/op
// measured on the fixture. rebuild is the reference path of the
// fork-vs-rebuild oracle: converge a from-scratch twin, then evaluate
// on it. eval was 2,924 (155 KB an evaluation) until Eval released its
// fork; on recycled storage it is 2,903 (86 KB), the rest being the
// rendered diff.
var evalLoops = []struct {
	name     string
	measured float64
	run      func(t testing.TB, f *evalFixture)
}{
	{"eval", 2903, func(t testing.TB, f *evalFixture) {
		if _, err := whatif.Eval(f.base, f.cd); err != nil {
			t.Fatal(err)
		}
	}},
	{"rebuild", 2915, func(t testing.TB, f *evalFixture) {
		c := scratchBase(t, f.engine, f.base.Prefix(), f.origin)
		if _, err := whatif.EvalOn(c, f.base, f.cd); err != nil {
			t.Fatal(err)
		}
	}},
}

// TestAllocsEvalCeilings gates the allocation profile of one what-if
// answer, the unit of work behind every POST /v1/whatif entry.
func TestAllocsEvalCeilings(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	f := newEvalFixture(t)
	for _, l := range evalLoops {
		run := func() { l.run(t, f) }
		run() // warm the intern pool and obs flush deltas
		if got, max := testing.AllocsPerRun(100, run), l.measured*1.15; got > max {
			t.Errorf("%s: %v allocs/op, want <= %.0f (measured %v + 15%%)", l.name, got, max, l.measured)
		}
	}
}

// BenchmarkEval times the same two loops, for -cpuprofile and benchstat
// while working on the engine. Nothing reads its output.
func BenchmarkEval(b *testing.B) {
	f := newEvalFixture(b)
	for _, l := range evalLoops {
		l := l
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.run(b, f)
			}
		})
	}
}
