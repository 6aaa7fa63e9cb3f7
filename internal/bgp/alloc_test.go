package bgp

// Allocation guards for the memory-compaction layer (ISSUE 5): the
// intern pool, origin-route cache, and scratch advertisement buffer
// exist so steady-state convergence work allocates nothing. These tests
// pin that with testing.AllocsPerRun so a regression (say, a closure
// sneaking back into bestTwo, or the scratch route escaping) fails
// tier-1. The zero-allocation guards come first; the ceilings on the
// kernel loops that must allocate (converge, poison, fork) follow.
// Allocation counts are machine-independent, so they are gated here;
// how long the same loops take is the ledger's business (bench/:
// bgp.prefix_p50_us, bgp.fork_reconverge_us).

import (
	"testing"

	"routelab/internal/asn"
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
		if c.best[i] == nil {
			continue
		}
		n := 0
		for _, r := range c.adjIn[i] {
			if r != nil {
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
	if raceEnabled {
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

// TestAllocsSuppressedReannounce pins the scratch-buffer property: re-
// announcing the identical announcement reprocesses the origin, derives
// every advertisement again, and suppresses them all as no-op refreshes
// — without installing (and so without heap-copying) a single route.
// The small remaining budget is the origin-route rebuild (Announce
// invalidates the cache: base path + intern key + route + map insert)
// and the queue bookkeeping, all O(1) per Converge regardless of
// topology size.
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
	base        *Computation
}

func newKernelFixture(tb testing.TB) *kernelFixture {
	tb.Helper()
	topo := topology.Generate(1, topology.TestConfig())
	k := &kernelFixture{e: New(topo, 1), origin: topo.Names["peering"], mux: topo.Names["mux-0"]}
	k.prefix = topo.AS(k.origin).Prefixes[0]
	k.base = k.converge()
	k.base.Freeze()
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

// kernelLoops are the engine's unit operations with the allocs/op
// measured on this fixture. The gate is measured + 15 %: loose enough
// for a toolchain's map-growth changes, tight enough that an eager row
// clone in Fork or a heap copy on the suppressed-advertisement path
// (hundreds to thousands of extra allocations here) cannot pass.
var kernelLoops = []struct {
	name     string
	measured float64
	run      func(k *kernelFixture)
}{
	{"converge", 2772, func(k *kernelFixture) { k.converge() }},
	{"poison_reconverge", 4342, func(k *kernelFixture) { k.poison(k.converge()) }},
	{"fork", 14, func(k *kernelFixture) { k.base.Fork() }},
	{"fork_reconverge", 1965, func(k *kernelFixture) { k.poison(k.base.Fork()) }},
}

// allocHeadroom is the regression a ceiling tolerates over its measured
// value.
const allocHeadroom = 1.15

// TestAllocsKernelCeilings gates the allocation profile of the loops
// every campaign and every what-if request is made of.
func TestAllocsKernelCeilings(t *testing.T) {
	k := newKernelFixture(t)
	for _, l := range kernelLoops {
		l := l
		t.Run(l.name, func(t *testing.T) {
			requireAllocs(t, l.name, l.measured*allocHeadroom, func() { l.run(k) })
		})
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
			for i := 0; i < b.N; i++ {
				l.run(k)
			}
		})
	}
}
