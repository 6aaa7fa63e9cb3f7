package bgp

// Allocation guards for the engine's memory model (DESIGN.md §12):
// routes are pointer-free records held by value and AS paths are nodes
// of a tree, so steady-state convergence work allocates nothing and a
// whole convergence allocates only its containers. These tests pin that
// with testing.AllocsPerRun so a regression (say, a closure sneaking
// back into bestTwo, or a record escaping to the heap per event) fails
// tier-1. The zero-allocation guards come first; the ceilings on the
// kernel loops that must allocate (converge, poison, fork) follow.
// Allocation counts are machine-independent, so they are gated here;
// how long the same loops take is the ledger's business (bench/:
// bgp.prefix_p50_us, bgp.fork_reconverge_us).

import (
	"runtime"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/race"
	"routelab/internal/topology"
)

// allocFixture returns a converged anycast computation over a generated
// topology, plus a transit AS known to hold a route with alternatives.
func allocFixture(t *testing.T) (*Computation, asn.ASN) {
	t.Helper()
	topo := topology.Generate(17, topology.TestConfig())
	e := New(topo, 17)
	origin := topo.Names["peering"]
	c := e.NewComputation(topo.AS(origin).Prefixes[0])
	c.Announce(Announcement{Origin: origin})
	if !c.Converge() {
		t.Fatal("fixture did not converge")
	}
	// Find an AS with at least two candidates so Step exercises the full
	// two-best scan, not the only-route early exit.
	for i := range c.adjIn {
		if c.best[i].path == 0 {
			continue
		}
		n := 0
		for _, r := range c.adjIn[i] {
			if r.path != 0 {
				n++
			}
		}
		if n >= 2 {
			return c, c.e.asns[i]
		}
	}
	t.Fatal("no AS with alternatives in fixture")
	return nil, 0
}

func requireAllocs(t *testing.T, what string, max float64, fn func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	fn() // warm up caches (origin route, intern pool, obs flush deltas)
	if got := testing.AllocsPerRun(100, fn); got > max {
		t.Errorf("%s: %v allocs/op, want <= %.0f", what, got, max)
	}
}

// TestAllocsSteadyStateConverge pins that converging an already-settled
// computation is allocation-free.
func TestAllocsSteadyStateConverge(t *testing.T) {
	c, _ := allocFixture(t)
	requireAllocs(t, "Converge on converged computation", 0, func() {
		c.Converge()
	})
}

// TestAllocsBestPathSelection pins that a single best-path decision —
// the Best/Step queries the experiments hammer — allocates nothing.
func TestAllocsBestPathSelection(t *testing.T) {
	c, target := allocFixture(t)
	requireAllocs(t, "Best+Step", 0, func() {
		if _, ok := c.Best(target); !ok {
			t.Fatal("target lost its route")
		}
		if _, ok := c.Step(target); !ok {
			t.Fatal("target lost its decision")
		}
	})
}

// TestAllocsSuppressedReannounce pins the suppressed-refresh property:
// re-announcing the identical announcement reprocesses the origin,
// derives every advertisement again, and suppresses them all as no-op
// refreshes — without installing a single route. The budget is what the
// origin-route rebuild in Announce may spend, O(1) per Converge
// regardless of topology size.
func TestAllocsSuppressedReannounce(t *testing.T) {
	c, _ := allocFixture(t)
	topo := c.e.topo
	origin := topo.Names["peering"]
	ann := Announcement{Origin: origin}
	requireAllocs(t, "identical re-announce + Converge", 16, func() {
		c.Announce(ann)
		c.Converge()
	})
}

// kernelFixture is the world the allocation ceilings and the kernel
// benchmarks share: topology.TestConfig seed 1, the PEERING origin
// announcing its first prefix (a FIXED prefix — per-prefix cost varies
// eightfold across a world, so rotating prefixes gates whichever comes
// first), mux-0 as the AS a poisoned announcement names, and the
// converged anycast frozen as the base every fork starts from.
type kernelFixture struct {
	e           *Engine
	origin, mux asn.ASN
	prefix      asn.Prefix
	base        *Base
}

func newKernelFixture(tb testing.TB) *kernelFixture {
	tb.Helper()
	topo := topology.Generate(1, topology.TestConfig())
	k := &kernelFixture{e: New(topo, 1), origin: topo.Names["peering"], mux: topo.Names["mux-0"]}
	k.prefix = topo.AS(k.origin).Prefixes[0]
	k.base = k.converge().Freeze()
	return k
}

// converge announces the prefix from scratch and settles it.
func (k *kernelFixture) converge() *Computation {
	c := k.e.NewComputation(k.prefix)
	c.Announce(Announcement{Origin: k.origin})
	c.Converge()
	return c
}

// poison re-announces with the mux poisoned and settles again — the
// inner loop of the §3.2 alternate-route discovery.
func (k *kernelFixture) poison(c *Computation) {
	c.Announce(Announcement{Origin: k.origin, Poisoned: []asn.ASN{k.mux}})
	c.Converge()
}

// kernelLoops are the engine's unit operations with a ceiling on their
// allocs/op. Measured on this fixture (go1.24): converge 16,
// poison_reconverge 19, fork 12, fork_reconverge 37 — a computation's
// containers, a fork's copies of them plus a few row-arena chunks and
// path-tree growth steps (nodes and, beside them, masks) — and
// fork_recycled 4: the same fork, poison
// and reconvergence on the storage the previous round Released. The
// ceilings leave a toolchain's map internals some room and still sit two
// orders of magnitude under what an allocation per route, per event or
// per cloned row costs here (hundreds to thousands; the per-route design
// this replaced measured 2,772 / 4,342 / 14 / 1,965).
var kernelLoops = []struct {
	name    string
	ceiling float64
	run     func(k *kernelFixture)
}{
	{"converge", 24, func(k *kernelFixture) { k.converge() }},
	{"poison_reconverge", 28, func(k *kernelFixture) { k.poison(k.converge()) }},
	{"fork", 18, func(k *kernelFixture) { k.base.Fork() }},
	{"fork_reconverge", 48, func(k *kernelFixture) { k.poison(k.base.Fork()) }},
	{"fork_recycled", 8, func(k *kernelFixture) {
		f := k.base.Fork()
		k.poison(f)
		f.Release()
	}},
}

// TestAllocsKernelCeilings gates the allocation profile of the loops
// every campaign and every what-if request is made of.
func TestAllocsKernelCeilings(t *testing.T) {
	k := newKernelFixture(t)
	for _, l := range kernelLoops {
		l := l
		t.Run(l.name, func(t *testing.T) {
			requireAllocs(t, l.name, l.ceiling, func() { l.run(k) })
		})
	}
}

// TestRIBBytesPerRoute pins what a held route costs: the heap a RIB of
// the TestConfig world retains, divided by the routes it holds, for a
// RIB with a scenario's kind of readers — 25 collector ASes, and as data
// plane the prefixes DNS answers from and the testbed's with everything
// announced over or under them — and for the keep-everything RIB. A
// whole column keeps a 24-byte record per AS and a few path nodes; a
// thin one shares its header and its path nodes among two dozen records
// only, which is why the scoped figure is the higher one. (The
// map[asn.ASN]Route per prefix all this replaced cost about 213.)
func TestRIBBytesPerRoute(t *testing.T) {
	if race.Enabled {
		t.Skip("heap sizes differ under -race")
	}
	topo := topology.Generate(1, topology.TestConfig())
	e := New(topo, 1)
	var scoped Readers
	for _, cls := range []topology.Class{topology.Tier1, topology.Research, topology.LargeISP, topology.Content} {
		scoped.Collectors = append(scoped.Collectors, topo.ASesOfClass(cls)...)
	}
	scoped.Collectors = scoped.Collectors[:25]
	dsts := append(topo.DNS.ServingPrefixes(), topo.AS(topo.Names["peering"]).Prefixes...)
	for _, p := range topo.OriginatedPrefixes() {
		for _, d := range dsts {
			if p.ContainsPrefix(d) || d.ContainsPrefix(p) {
				scoped.DataPlane = append(scoped.DataPlane, p)
				break
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, tc := range []struct {
		name    string
		readers Readers
	}{
		{"scoped", scoped},
		{"full", Readers{DataPlane: topo.OriginatedPrefixes()}},
	} {
		before := heap()
		rib := e.ComputeRIB(topo.OriginatedPrefixes(), tc.readers, 1)
		retained := heap() - before
		routes := 0
		for _, col := range rib.cols {
			routes += countRoutes(col.best)
		}
		if got := float64(retained) / float64(routes); got > 48 {
			t.Errorf("%s RIB retains %d bytes for %d routes: %.1f B/route, want <= 48", tc.name, retained, routes, got)
		} else {
			t.Logf("%s RIB: %d routes, %.1f B/route", tc.name, routes, got)
		}
		runtime.KeepAlive(rib)
	}
}

// BenchmarkKernel times the same loops on the same fixture, for
// -cpuprofile and benchstat while working on the engine. Nothing reads
// its output: timing claims belong to the ledger (bench/).
func BenchmarkKernel(b *testing.B) {
	k := newKernelFixture(b)
	for _, l := range kernelLoops {
		l := l
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			events, adverts := obsConvergeEvents.Value(), obsConvergeAdverts.Value()
			for i := 0; i < b.N; i++ {
				l.run(k)
			}
			if events = obsConvergeEvents.Value() - events; events > 0 {
				b.ReportMetric(float64(obsConvergeAdverts.Value()-adverts)/float64(events), "adverts/event")
			}
		})
	}
}
