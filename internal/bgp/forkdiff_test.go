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
//
// The oracle is also the reference for process's skipping (ISSUE 24): it
// converges with convergeAll, which visits every adjacency of every
// event, so each comparison below says as well that stepping over the
// export-denied adjacencies moved no clock, no age and no slot.

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
	// whatif, when set, is a what-if edit (FailLink, AddPeering,
	// SetLocalPref) instead. Its error is part of the history: an edit the
	// fork refuses, the replay refuses too.
	whatif func(c *Computation) error
}

func (o forkOp) apply(c *Computation) { o.applyWith(c, (*Computation).Converge) }

func (o forkOp) applyWith(c *Computation, converge func(*Computation) bool) {
	switch {
	case o.whatif != nil:
		_ = o.whatif(c)
	case o.converge:
		converge(c)
	case o.withdraw:
		c.Withdraw(o.origin)
	default:
		c.Announce(o.ann)
	}
}

// convergeAll is Converge over processAll: the event loop with no
// adjacency skipped.
func convergeAll(c *Computation) bool {
	limit := maxEventsPerAS * len(c.e.asns)
	for events := 1; c.q.n > 0; events++ {
		i := c.q.pop()
		if events > limit {
			c.converged = false
			return false
		}
		processAll(c, i)
	}
	c.converged = true
	return true
}

// processAll is process as it was before it consulted upSent: every
// adjacency of AS i derives its advertisement and delivers it. It neither
// reads nor maintains upSent.
func processAll(c *Computation, i int32) {
	c.nProcessed++
	if c.force[i] {
		c.force[i] = false
		c.reselect(i)
	}
	e := c.e
	s := sender{i: i, best: c.best[i]}
	for k := e.off[i]; k < e.off[i+1]; k++ {
		a := &e.adj[k]
		c.propagate(&s, a.peer, a.back, c.adjSt[k], a.link)
	}
	if c.ov != nil {
		for _, ex := range c.ov.extra[i] {
			c.propagate(&s, ex.peer, ex.back, ex.st, ex.link)
		}
	}
}

// replay builds a fresh from-scratch computation and applies the history
// in order: how the tests build the bases they fork.
func replay(e *Engine, prefix asn.Prefix, hist []forkOp) *Computation {
	c := e.NewComputation(prefix)
	for _, o := range hist {
		o.apply(c)
	}
	return c
}

// oracle is replay visiting every adjacency — what the forked
// computation is compared against. It leaves upSent unmaintained, so it
// is never forked or converged further.
func oracle(e *Engine, prefix asn.Prefix, hist []forkOp) *Computation {
	c := e.NewComputation(prefix)
	for _, o := range hist {
		o.applyWith(c, convergeAll)
	}
	return c
}

// checkUpSent walks the invariant process's skipping rests on: where
// upSent[i] is false, no base neighbor of AS i other than its customers
// and siblings holds a route from it.
func checkUpSent(t *testing.T, c *Computation) {
	t.Helper()
	e := c.e
	for i := range c.upSent {
		if c.upSent[i] {
			continue
		}
		for k := e.off[i]; k < e.off[i+1]; k++ {
			a, rel := &e.adj[k], c.adjSt[k].rel
			if rel == topology.RelCustomer || rel == topology.RelSibling {
				continue
			}
			if row := c.adjIn[a.peer]; int(a.back) < len(row) && row[a.back].path != 0 {
				t.Errorf("upSent[%s] is false, yet its %s %s holds %+v from it", e.asns[i], rel, e.asns[a.peer], row[a.back])
			}
		}
	}
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
	checkUpSent(t, got)
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
			f := base.Freeze().Fork()

			rng := rand.New(rand.NewSource(seed * 977))
			ops := randomOps(rng, all, origin, 12)
			for i, o := range ops {
				if i == len(ops)/2 {
					// Mid-history re-fork: the three-segment path tree and
					// double-COW rows must behave identically to a single fork.
					f = f.Freeze().Fork()
				}
				o.apply(f)
				hist = append(hist, o)
			}

			checkSameState(t, f, oracle(e, prefix, hist))
		})
	}
}

// drain is Converge returning the adjacencies its events met and the
// advertisements they derived, which Converge itself publishes and
// zeroes.
func drain(c *Computation) (adj, adverts int) {
	for c.q.n > 0 {
		c.process(c.q.pop())
	}
	c.converged = true
	adj, adverts = c.nAdj, c.nAdverts
	c.flushObs()
	return adj, adverts
}

// TestSkipMatchesVisitEveryAdjacency drives one computation — through
// announcements, poisons, withdrawals, failed links, added peerings and
// local-pref overrides, forked twice on the way — beside the oracle that
// visits every adjacency: the upSent invariant holds after every
// Converge, and the two end state-identical, clocks, ages and adj-RIB-ins
// included. The oracle derives an advertisement per adjacency, so the
// counters say how much the skipping saved on the way.
func TestSkipMatchesVisitEveryAdjacency(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1337} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			topo := topology.Generate(seed, topology.TestConfig())
			e := New(topo, seed)
			origin := topo.Names["peering"]
			prefix := topo.AS(origin).Prefixes[0]
			hist := []forkOp{{ann: Announcement{Origin: origin}}, {converge: true}}
			hist = append(hist, dirtyOps(rand.New(rand.NewSource(seed*613)), topo, origin, 24)...)

			c := e.NewComputation(prefix)
			adj, adverts := 0, 0
			adj0, adverts0 := obsConvergeAdj.Value(), obsConvergeAdverts.Value()
			for k, o := range hist {
				if k == len(hist)/3 || k == 2*len(hist)/3 {
					c = c.Freeze().Fork()
				}
				if o.converge {
					a, d := drain(c)
					adj, adverts = adj+a, adverts+d
					checkUpSent(t, c)
				} else {
					o.apply(c)
				}
			}
			if a, d := obsConvergeAdj.Value()-adj0, obsConvergeAdverts.Value()-adverts0; a != int64(adj) || d != int64(adverts) {
				t.Errorf("bgp.converge.adjacencies / .adverts moved by %d / %d, the computations counted %d / %d", a, d, adj, adverts)
			}
			checkSameState(t, c, oracle(e, prefix, hist))
			if adverts >= adj {
				t.Errorf("%d advertisements derived over %d adjacencies: nothing was skipped", adverts, adj)
			}
			t.Logf("%d advertisements derived over %d adjacencies (%.2f)", adverts, adj, float64(adverts)/float64(adj))
		})
	}
}

// TestResetMatchesNewComputation pins the other way a computation's
// storage comes round again: ComputeRIB's reset. A computation that
// converged one prefix and was reset to another ends state-identical to
// the oracle's fresh one, having derived exactly the advertisements a
// fresh one derives — an upSent byte left standing is harmless to
// routing, and would still make bgp.converge.adverts depend on which
// worker a prefix landed on.
func TestResetMatchesNewComputation(t *testing.T) {
	topo := topology.Generate(7, topology.TestConfig())
	e := New(topo, 7)
	prefixes := topo.OriginatedPrefixes()
	pa, pb := prefixes[0], prefixes[len(prefixes)/2]
	hist := func(p asn.Prefix) []forkOp {
		return []forkOp{{ann: Announcement{Origin: topo.OriginOf(p)}}, {converge: true}}
	}
	c := replay(e, pa, hist(pa))
	c.reset(pb)
	c.Announce(hist(pb)[0].ann)
	adj, adverts := drain(c)
	checkSameState(t, c, oracle(e, pb, hist(pb)))

	fresh := e.NewComputation(pb)
	fresh.Announce(hist(pb)[0].ann)
	if a, d := drain(fresh); a != adj || d != adverts {
		t.Errorf("after reset: %d advertisements over %d adjacencies, a fresh computation %d over %d", adverts, adj, d, a)
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
	f := replay(e, prefix, hist).Freeze().Fork()
	f.Converge()
	hist = append(hist, forkOp{converge: true})
	checkSameState(t, f, oracle(e, prefix, hist))
}

// TestForkParentIsolation pins copy-on-write: driving a fork through an
// aggressive history must leave every observable bit of the frozen
// parent untouched.
func TestForkParentIsolation(t *testing.T) {
	e, prefix, all, hist := forkFixture(t, 11)
	origin := hist[0].ann.Origin
	base := replay(e, prefix, hist).Freeze()

	snap := snapshotOf(base) // taken before forking

	f := base.Fork()
	for _, o := range randomOps(rand.New(rand.NewSource(4242)), all, origin, 16) {
		o.apply(f)
	}
	f.Converge()
	snap.check(t, "the parent")
}

// TestConcurrentForks drives independent forks of one frozen base from
// parallel goroutines — exactly the alternates-campaign shape — and
// checks each against its from-scratch oracle. The base is frozen once,
// before any goroutine sees it; run under -race this also proves the
// frozen parent (shared rows, chained path-tree segment, the frozen
// flag itself) is safe to read concurrently.
func TestConcurrentForks(t *testing.T) {
	e, prefix, all, hist := forkFixture(t, 21)
	origin := hist[0].ann.Origin
	base := replay(e, prefix, hist).Freeze()

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
		checkSameState(t, forks[w], oracle(e, prefix, append(append([]forkOp(nil), hist...), histories[w]...)))
	}
}

// TestFrozenComputationPanics pins the runtime half of the freeze
// contract, for the owner that still holds the Computation it froze:
// its mutators panic, Release panics (forks may be reading its rows),
// and a released computation cannot be frozen into a Base.
func TestFrozenComputationPanics(t *testing.T) {
	e, prefix, _, hist := forkFixture(t, 2)
	origin := hist[0].ann.Origin
	c := replay(e, prefix, hist)
	base := c.Freeze()
	c.Freeze() // idempotent

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Announce after Freeze", func() { c.Announce(Announcement{Origin: origin}) })
	mustPanic("Withdraw after Freeze", func() { c.Withdraw(origin) })
	mustPanic("Release of a frozen computation", c.Release)
	f := base.Fork()
	f.Release()
	mustPanic("Freeze of a released computation", func() { f.Freeze() })
}

// TestBaseMethodSet pins the type half of the freeze contract: a Base
// reads and forks, nothing else, so nothing that holds one can reach
// Announce, Withdraw or a what-if edit through any number of calls. A
// method added to Base fails here first.
func TestBaseMethodSet(t *testing.T) {
	typ := reflect.TypeOf((*Base)(nil))
	var got []string
	for i := range typ.NumMethod() {
		got = append(got, typ.Method(i).Name)
	}
	if want := []string{"Best", "Fork", "Prefix"}; !slices.Equal(got, want) {
		t.Fatalf("*Base methods = %v, want exactly %v", got, want)
	}
}

// TestFrozenBaseConcurrentReads pins the read side of the freeze
// contract: a Base — what peering.AnycastBase hands to every request —
// is queried, forked and diffed against from many goroutines at once.
// Half of its paths were materialised (and cached) before the freeze,
// half were not, so both the cache-hit and the build-afresh branches of
// the read boundary run concurrently; under -race this proves neither
// writes to the shared computation.
func TestFrozenBaseConcurrentReads(t *testing.T) {
	e, prefix, all, hist := forkFixture(t, 21)
	c := replay(e, prefix, hist)
	for _, a := range all[:len(all)/2] {
		c.Best(a)
	}
	base := c.Freeze()
	want := c.Routes()
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

// dirtyOps is randomOps with what-if edits mixed in — links failing,
// peerings appearing (rows widen), local preferences overridden — so the
// fork that ran it leaves an overlay, widened rows, AS_SETs and a grown
// path segment behind in whatever it hands back.
func dirtyOps(rng *rand.Rand, topo *topology.Topology, origin asn.ASN, n int) []forkOp {
	all := topo.ASNs()
	neighbor := func() (asn.ASN, asn.ASN) {
		for {
			a := all[rng.Intn(len(all))]
			if nbs := topo.Neighbors(a); len(nbs) > 0 {
				return a, nbs[rng.Intn(len(nbs))].ASN
			}
		}
	}
	var ops []forkOp
	for _, o := range randomOps(rng, all, origin, n) {
		ops = append(ops, o)
		switch rng.Intn(4) {
		case 0:
			a, b := neighbor()
			ops = append(ops, forkOp{whatif: func(c *Computation) error { return c.FailLink(a, b) }})
		case 1:
			// Two new providers for one AS (a provider exports whatever it
			// routes on): its row widens by two slots on the first
			// advertisement across either, so one slot of the new row is
			// neither copied nor written.
			// (Most random pairs share no interconnection city: draw until
			// two proposals stand, for at most a few hundred draws.)
			x, added := all[rng.Intn(len(all))], 0
			for try := 0; try < 400 && added < 2; try++ {
				if try%100 == 99 {
					x = all[rng.Intn(len(all))]
				}
				if l, err := topo.ProposeLink(x, all[rng.Intn(len(all))], topology.RelProvider); err == nil {
					ops = append(ops, forkOp{whatif: func(c *Computation) error { return c.AddPeering(l) }})
					added++
				}
			}
		case 2:
			at, from := neighbor()
			pref := 50 + 100*rng.Intn(5)
			ops = append(ops, forkOp{whatif: func(c *Computation) error { return c.SetLocalPref(at, from, pref) }})
		}
	}
	return append(ops, forkOp{converge: true})
}

// recycledFork dirties a fork of `dirty`, releases it, and forks `base`,
// until that fork comes out on storage in its second round at least: a
// row slab — what only recycled storage carries — that the dirtied fork
// already wrote its rows into. Nil after 64 tries (sync.Pool may drop a
// Put, and does so at random under -race).
func recycledFork(rng *rand.Rand, topo *topology.Topology, origin asn.ASN, dirty, base *Base) *Computation {
	for try := 0; try < 64; try++ {
		f := dirty.Fork()
		stale := f.rows.slab != nil
		for _, o := range dirtyOps(rng, topo, origin, 10) {
			o.apply(f)
		}
		f.Release()
		g := base.Fork()
		if stale && g.rows.slab != nil {
			return g
		}
		g.Release()
	}
	return nil
}

// recycleFixture is one world with two different frozen bases of one
// prefix: forks of a get dirtied and released, forks of b re-issued.
type recycleFixture struct {
	topo   *topology.Topology
	e      *Engine
	origin asn.ASN
	prefix asn.Prefix
	histB  []forkOp
	a, b   *Base
}

func newRecycleFixture(seed int64) *recycleFixture {
	topo := topology.Generate(seed, topology.TestConfig())
	x := &recycleFixture{topo: topo, e: New(topo, seed), origin: topo.Names["peering"]}
	x.prefix = topo.AS(x.origin).Prefixes[0]
	histA := []forkOp{{ann: Announcement{Origin: x.origin}}, {converge: true}}
	x.histB = append(slices.Clone(histA), randomOps(rand.New(rand.NewSource(seed)), topo.ASNs(), x.origin, 6)...)
	x.a, x.b = replay(x.e, x.prefix, histA).Freeze(), replay(x.e, x.prefix, x.histB).Freeze()
	return x
}

// TestRecycledForkDifferentialOracle is the property for storage that
// comes round again: a fork dirtied by a random history, what-if edits
// included, and released, then re-issued from a DIFFERENT frozen base,
// is state-identical to a fresh Fork of that base — straight away, and
// after both ran the same further history (what-if edits again, so rows
// widen inside the recycled slab) — and to the from-scratch replay; and
// neither base sees any of it.
func TestRecycledForkDifferentialOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			x := newRecycleFixture(seed)
			snapA, snapB := snapshotOf(x.a), snapshotOf(x.b)
			rng := rand.New(rand.NewSource(seed*7919 + 1))

			g := recycledFork(rng, x.topo, x.origin, x.a, x.b)
			if g == nil {
				t.Fatal("no fork came out on recycled storage")
			}
			fresh := x.b.Fork()
			if fresh.rows.slab != nil {
				t.Fatal("the reference fork is on recycled storage too")
			}
			checkSameState(t, g, fresh)

			ops := dirtyOps(rng, x.topo, x.origin, 10)
			for _, o := range ops {
				o.apply(g)
				o.apply(fresh)
			}
			checkSameState(t, g, fresh)
			checkSameState(t, g, oracle(x.e, x.prefix, append(slices.Clone(x.histB), ops...)))
			snapA.check(t, "the base the dirtied fork came from")
			snapB.check(t, "the base the recycled fork came from")
		})
	}
}

// TestConcurrentRecycledForks runs the same property from eight
// goroutines sharing one engine and its two bases — the serving path's
// shape: every what-if and alternates request draws from and hands back
// to one pool while the others do. Each recycled fork is checked, state
// for state, against its replay. Under -race this is what proves a
// storage is never in two forks' hands.
func TestConcurrentRecycledForks(t *testing.T) {
	x := newRecycleFixture(21)
	snapA, snapB := snapshotOf(x.a), snapshotOf(x.b)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*131 + 5))
			for round := 0; round < 3; round++ {
				g := recycledFork(rng, x.topo, x.origin, x.a, x.b)
				if g == nil {
					t.Errorf("worker %d: no fork came out on recycled storage", w)
					return
				}
				ops := dirtyOps(rng, x.topo, x.origin, 6)
				for _, o := range ops {
					o.apply(g)
				}
				checkSameState(t, g, oracle(x.e, x.prefix, append(slices.Clone(x.histB), ops...)))
				g.Release()
			}
		}(w)
	}
	wg.Wait()
	snapA.check(t, "the base the dirtied forks came from")
	snapB.check(t, "the base the recycled forks came from")
}

// baseSnapshot is a deep value copy of a base's observable state
// (records are values, so cloning rows copies them).
type baseSnapshot struct {
	c      *Computation
	clock  uint32
	nodes  int
	best   []rec
	rows   [][]rec
	routes map[asn.ASN]Route
}

func snapshotOf(b *Base) baseSnapshot {
	c := b.c
	s := baseSnapshot{c: c, clock: c.clock, nodes: len(c.paths.nodes), best: slices.Clone(c.best), routes: c.Routes()}
	for _, row := range c.adjIn {
		s.rows = append(s.rows, slices.Clone(row))
	}
	return s
}

func (s baseSnapshot) check(t *testing.T, who string) {
	t.Helper()
	c := s.c
	if c.clock != s.clock || len(c.paths.nodes) != s.nodes || !slices.Equal(c.best, s.best) {
		t.Errorf("%s: clock, path segment or best column changed", who)
	}
	for i, row := range c.adjIn {
		if !slices.Equal(row, s.rows[i]) {
			t.Errorf("%s: adjIn[%s] changed through a shared row", who, c.e.asns[i])
		}
	}
	if !reflect.DeepEqual(c.Routes(), s.routes) {
		t.Errorf("%s: Routes() changed", who)
	}
}

// TestReleaseContract pins who may be released and what is left of it: a
// frozen computation may have live forks reading its rows and its path
// segment, so releasing one panics; a released one refuses every
// mutator, Freeze and a second Release by name, and its reads find
// nothing to index. Nothing a read returned before is invalidated.
func TestReleaseContract(t *testing.T) {
	e, prefix, all, hist := forkFixture(t, 2)
	origin := hist[0].ann.Origin
	c := replay(e, prefix, hist)
	base := c.Freeze()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}

	f := base.Fork()
	mustPanic("Release of a frozen computation", c.Release)
	f.Announce(Announcement{Origin: origin, Poisoned: []asn.ASN{all[5]}})
	f.Converge()
	routes := f.Routes()
	kept, _ := f.Best(all[9])
	f.Release()

	mustPanic("Announce after Release", func() { f.Announce(Announcement{Origin: origin}) })
	mustPanic("Withdraw after Release", func() { f.Withdraw(origin) })
	mustPanic("FailLink after Release", func() { _ = f.FailLink(all[0], all[1]) })
	mustPanic("SetLocalPref after Release", func() { _ = f.SetLocalPref(all[0], all[1], 10) })
	mustPanic("Freeze after Release", func() { f.Freeze() })
	mustPanic("Release after Release", f.Release)
	mustPanic("Best after Release", func() { f.Best(all[9]) })

	// The storage is in another fork's hands now; what was read out
	// before the release still says what it said.
	g := base.Fork()
	g.Announce(Announcement{Origin: origin, Poisoned: []asn.ASN{all[9], all[11]}})
	g.Converge()
	want := replay(e, prefix, append(slices.Clone(hist),
		forkOp{ann: Announcement{Origin: origin, Poisoned: []asn.ASN{all[5]}}}, forkOp{converge: true}))
	if !reflect.DeepEqual(routes, want.Routes()) {
		t.Error("Routes() read before Release changed once the storage was reused")
	}
	if wr, _ := want.Best(all[9]); !reflect.DeepEqual(kept, wr) {
		t.Error("a Route read before Release changed once the storage was reused")
	}
}
