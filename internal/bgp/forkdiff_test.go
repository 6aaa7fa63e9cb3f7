package bgp

// Differential convergence suite for Computation.Fork (ISSUE 5's
// backbone): a fork that is mutated and reconverged must be
// indistinguishable — full internal state, not just the public RIB view —
// from a from-scratch computation that replayed the identical
// announce/withdraw/converge history. "Identical history" matters: the
// event clock feeds Route.Age, whose tie-breaking makes convergence
// history-dependent, so the oracle replays the exact op sequence
// (including Converge boundaries) rather than just the final
// announcement set.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/topology"
)

// forkOp is one step of a computation's history.
type forkOp struct {
	converge bool // drain the queue
	withdraw bool // withdraw `origin` (else announce `ann`)
	origin   asn.ASN
	ann      Announcement
}

func (o forkOp) apply(c *Computation) {
	switch {
	case o.converge:
		c.Converge()
	case o.withdraw:
		c.Withdraw(o.origin)
	default:
		c.Announce(o.ann)
	}
}

// replay builds a fresh from-scratch computation and applies the history
// in order — the oracle the forked computation is compared against.
func replay(e *Engine, prefix asn.Prefix, hist []forkOp) *Computation {
	c := e.NewComputation(prefix)
	for _, o := range hist {
		o.apply(c)
	}
	return c
}

// recStateEqual compares two route records field by field, Age and the
// cached decision inputs included. Fork and oracle live in different
// path trees, so the path ids differ even when the routes are
// identical: the paths compare element by element.
func recStateEqual(ca *Computation, a rec, cb *Computation, b rec) bool {
	pa, pb := a.path, b.path
	a.path, b.path = 0, 0
	return a == b && pathsEqual(&ca.paths, pa, &cb.paths, pb, sharedBelow(&ca.paths, &cb.paths))
}

// checkSameState asserts got (the fork) and want (the from-scratch
// oracle) agree on every piece of convergence state: best routes,
// adj-RIB-in contents, announcements, event clock, and convergence flag.
func checkSameState(t *testing.T, got, want *Computation) {
	t.Helper()
	if got.clock != want.clock {
		t.Errorf("clock: fork=%d oracle=%d", got.clock, want.clock)
	}
	if got.converged != want.converged {
		t.Errorf("converged: fork=%v oracle=%v", got.converged, want.converged)
	}
	if !reflect.DeepEqual(got.anns, want.anns) {
		t.Errorf("announcements diverge: fork=%v oracle=%v", got.anns, want.anns)
	}
	for i := range got.best {
		a := got.e.asns[i]
		if !recStateEqual(got, got.best[i], want, want.best[i]) {
			t.Errorf("best[%s]: fork=%+v oracle=%+v", a, got.best[i], want.best[i])
		}
		gRow, wRow := got.adjIn[i], want.adjIn[i]
		if len(gRow) != len(wRow) {
			t.Errorf("adjIn[%s]: fork row holds %d slots, oracle %d", a, len(gRow), len(wRow))
			continue
		}
		for s := range gRow {
			if !recStateEqual(got, gRow[s], want, wRow[s]) {
				t.Errorf("adjIn[%s][%d]: fork=%+v oracle=%+v", a, s, gRow[s], wRow[s])
			}
		}
	}
	// Public views must agree too (they are derived, but this is what
	// the experiments actually consume).
	if !reflect.DeepEqual(got.Routes(), want.Routes()) {
		t.Error("Routes() maps diverge")
	}
}

// randomOps generates n announce/withdraw ops (with interleaved
// converges) driven by rng: poisoned and Via-restricted announcements
// from the main origin, secondary origins announcing and withdrawing.
func randomOps(rng *rand.Rand, all []asn.ASN, origin asn.ASN, n int) []forkOp {
	var ops []forkOp
	announced := []asn.ASN{origin} // origins touched so far (withdraw pool)
	pick := func() asn.ASN { return all[rng.Intn(len(all))] }
	for len(ops) < n {
		switch rng.Intn(5) {
		case 0: // poisoned re-announcement from the main origin
			poisoned := make([]asn.ASN, 1+rng.Intn(3))
			for i := range poisoned {
				poisoned[i] = pick()
			}
			ops = append(ops, forkOp{ann: Announcement{Origin: origin, Poisoned: poisoned}})
		case 1: // Via-restricted announcement
			via := make([]asn.ASN, 1+rng.Intn(2))
			for i := range via {
				via[i] = pick()
			}
			ops = append(ops, forkOp{ann: Announcement{Origin: origin, Via: via}})
		case 2: // secondary origin appears
			o := pick()
			announced = append(announced, o)
			ops = append(ops, forkOp{ann: Announcement{Origin: o}})
		case 3: // some previously seen origin withdraws
			o := announced[rng.Intn(len(announced))]
			ops = append(ops, forkOp{withdraw: true, origin: o})
		case 4:
			ops = append(ops, forkOp{converge: true})
		}
	}
	ops = append(ops, forkOp{converge: true})
	return ops
}

// forkFixture builds a generated topology, converges the base anycast
// announcement, and returns everything the differential tests need.
func forkFixture(t *testing.T, seed int64) (*Engine, asn.Prefix, []asn.ASN, []forkOp) {
	t.Helper()
	topo := topology.Generate(seed, topology.TestConfig())
	e := New(topo, seed)
	origin := topo.Names["peering"]
	prefix := topo.AS(origin).Prefixes[0]
	hist := []forkOp{
		{ann: Announcement{Origin: origin}},
		{converge: true},
	}
	return e, prefix, topo.ASNs(), hist
}

// TestForkDifferentialOracle is the core property: for a table of
// topology seeds and random mutation histories, fork-and-mutate equals
// from-scratch-with-same-history, state-identically.
func TestForkDifferentialOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1337} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			e, prefix, all, hist := forkFixture(t, seed)
			origin := hist[0].ann.Origin

			base := replay(e, prefix, hist)
			if !base.Converged() {
				t.Fatal("base did not converge")
			}
			f := base.Fork()

			rng := rand.New(rand.NewSource(seed * 977))
			ops := randomOps(rng, all, origin, 12)
			for i, o := range ops {
				if i == len(ops)/2 {
					// Mid-history re-fork: the three-segment path tree and
					// double-COW rows must behave identically to a single fork.
					f = f.Fork()
				}
				o.apply(f)
				hist = append(hist, o)
			}

			checkSameState(t, f, replay(e, prefix, hist))
		})
	}
}

// TestForkOfUnconvergedComputation pins that pending queue events carry
// over: forking before Converge and converging the fork matches a
// from-scratch computation.
func TestForkOfUnconvergedComputation(t *testing.T) {
	e, prefix, all, base := forkFixture(t, 5)
	origin := base[0].ann.Origin
	hist := []forkOp{
		{ann: Announcement{Origin: origin}},
		{converge: true},
		{ann: Announcement{Origin: origin, Poisoned: []asn.ASN{all[3], all[17]}}},
		// not converged at fork time
	}
	c := replay(e, prefix, hist)
	f := c.Fork()
	f.Converge()
	hist = append(hist, forkOp{converge: true})
	checkSameState(t, f, replay(e, prefix, hist))
}

// TestForkParentIsolation pins copy-on-write: driving a fork through an
// aggressive history must leave every observable bit of the frozen
// parent untouched.
func TestForkParentIsolation(t *testing.T) {
	e, prefix, all, hist := forkFixture(t, 11)
	origin := hist[0].ann.Origin
	base := replay(e, prefix, hist)

	// Deep value snapshot of the parent — records are values, so cloning
	// the column and every row copies them — taken before forking.
	snapRoutes := base.Routes()
	snapBest := slices.Clone(base.best)
	snapRows := make([][]rec, len(base.adjIn))
	for i, row := range base.adjIn {
		snapRows[i] = slices.Clone(row)
	}
	snapClock := base.clock
	snapPaths := len(base.paths.nodes)

	f := base.Fork()
	for _, o := range randomOps(rand.New(rand.NewSource(4242)), all, origin, 16) {
		o.apply(f)
	}
	f.Converge()

	if base.clock != snapClock {
		t.Errorf("parent clock moved: %d -> %d", snapClock, base.clock)
	}
	if len(base.paths.nodes) != snapPaths {
		t.Errorf("parent path tree grew: %d -> %d nodes", snapPaths, len(base.paths.nodes))
	}
	if !slices.Equal(base.best, snapBest) {
		t.Fatal("parent best column mutated")
	}
	for i, row := range base.adjIn {
		if !slices.Equal(row, snapRows[i]) {
			t.Fatalf("parent adjIn[%s] mutated through a shared row", base.e.asns[i])
		}
	}
	if !reflect.DeepEqual(base.Routes(), snapRoutes) {
		t.Error("parent Routes() changed after fork mutation")
	}
}

// TestConcurrentForks drives independent forks of one frozen base from
// parallel goroutines — exactly the alternates-campaign shape — and
// checks each against its from-scratch oracle. Run under -race this also
// proves the frozen parent (shared rows, chained path-tree segment) is
// safe to read concurrently.
func TestConcurrentForks(t *testing.T) {
	e, prefix, all, hist := forkFixture(t, 21)
	origin := hist[0].ann.Origin
	base := replay(e, prefix, hist)
	base.Freeze()

	const workers = 8
	var wg sync.WaitGroup
	forks := make([]*Computation, workers)
	histories := make([][]forkOp, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := base.Fork()
			ops := randomOps(rand.New(rand.NewSource(int64(w)*31+7)), all, origin, 8)
			for _, o := range ops {
				o.apply(f)
			}
			forks[w] = f
			histories[w] = ops
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		oracle := replay(e, prefix, append(append([]forkOp(nil), hist...), histories[w]...))
		checkSameState(t, forks[w], oracle)
	}
}

// TestFrozenComputationPanics pins the freeze contract: mutation of a
// frozen computation is a programming error, loudly.
func TestFrozenComputationPanics(t *testing.T) {
	e, prefix, _, hist := forkFixture(t, 2)
	origin := hist[0].ann.Origin
	base := replay(e, prefix, hist)

	if base.Frozen() {
		t.Fatal("fresh computation reports frozen")
	}
	base.Fork() // freezes
	if !base.Frozen() {
		t.Fatal("Fork did not freeze the parent")
	}
	base.Freeze() // idempotent

	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a frozen computation did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Announce", func() { base.Announce(Announcement{Origin: origin}) })
	mustPanic("Withdraw", func() { base.Withdraw(origin) })
}

// TestFrozenBaseConcurrentReads pins the read side of the freeze
// contract: a frozen base — the shape peering.AnycastBase hands to every
// request — is queried and diffed against from many goroutines at once.
// Half of its paths were materialised (and cached) before the freeze,
// half were not, so both the cache-hit and the build-afresh branches of
// the read boundary run concurrently; under -race this proves neither
// writes to the shared computation.
func TestFrozenBaseConcurrentReads(t *testing.T) {
	e, prefix, all, hist := forkFixture(t, 21)
	base := replay(e, prefix, hist)
	for _, a := range all[:len(all)/2] {
		base.Best(a)
	}
	base.Freeze()
	want := base.Routes()
	poisoned := base.Fork()
	poisoned.Announce(Announcement{Origin: hist[0].ann.Origin, Poisoned: []asn.ASN{all[5]}})
	poisoned.Converge()
	wantDiff := poisoned.BestDiff(base)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, a := range all {
				r, ok := base.Best(a)
				if wr, held := want[a]; ok != held || !reflect.DeepEqual(r, wr) {
					t.Errorf("Best(%s) = %v (%v), want %v (%v)", a, r, ok, wr, held)
				}
				base.Step(a)
				base.Alternatives(a)
			}
			if got := base.Fork().BestDiff(base); len(got) != 0 {
				t.Errorf("an untouched fork differs from its base at %d ASes", len(got))
			}
		}()
	}
	// The fork's owner diffs it against the base while the readers run.
	if got := poisoned.BestDiff(base); !reflect.DeepEqual(got, wantDiff) {
		t.Error("BestDiff against a base under concurrent reads changed")
	}
	wg.Wait()
}
