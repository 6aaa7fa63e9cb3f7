// Package parallel is the repository's single execution layer for
// running independent units of routing work concurrently. Every
// parallel stage in routelab — per-prefix RIB convergence, per-probe
// traceroute generation, per-mux magnet runs, per-subtree alternate
// discovery, per-snapshot inference, per-refinement classification —
// funnels through this package, so the concurrency model is stated
// once, here, and in DESIGN.md §"Concurrency model".
//
// # Determinism contract
//
// Parallelism must never change output. The package guarantees it
// structurally:
//
//   - Work is identified by index. Map and ForEach hand item i to
//     exactly one worker and store its result at slot i; no result
//     passes through a channel or a time-ordered merge.
//   - The merge barrier is the return: when Map/ForEach return, every
//     slot is written and the caller consumes results in index order —
//     a stable, seed- and schedule-independent order. Output is
//     byte-identical for any worker count, including 1.
//   - The worker function must be a pure function of (read-only shared
//     state, its item): it may not touch shared mutable state, draw
//     from a shared rand.Rand, or depend on completion order. Callers
//     that need randomness derive one seed per item BEFORE the fan-out
//     (see scenario.Campaign) so the stream split is itself
//     deterministic.
//
// # Ownership rules
//
// Shared inputs (topology.Topology, bgp.Engine, bgp.RIB, the
// measurement databases) are immutable after construction and safe to
// read from any worker. Per-item state (bgp.Computation, a worker's
// rand.Rand, a traceroute in flight) is confined to the worker that
// owns the item and must not escape except as the item's result.
//
// # Sizing
//
// Workers(0) — and any n <= 0 — selects runtime.GOMAXPROCS(0), the
// default everywhere a worker count is plumbed (scenario.Config
// RoutingWorkers, the -workers CLI flags). Workers(1) runs the caller's
// loop inline with no goroutines, which is the serial reference path
// the determinism tests compare against.
//
// # Observability
//
// MapStage, the instrumented Map, additionally records the stage's
// wall clock, item count, items/sec, and worker utilization on the obs
// registry its caller names, a scenario's record (see internal/obs and
// DESIGN.md §"Observability"). Metrics never feed back into results.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"routelab/internal/obs"
)

// Workers normalizes a configured worker count: values <= 0 select
// GOMAXPROCS (use all hardware), anything else is taken as-is.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) using the given number of
// workers (normalized by Workers). It returns when every call has
// finished — the merge barrier. fn must not touch shared mutable state;
// see the package comment for the full contract. A panic in any fn is
// re-raised on the calling goroutine after the pool drains.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial reference path: same loop, no goroutines.
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				//lint:allow hotatomic the work-stealing index is the fan-out mechanism itself: one atomic per item, by design
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}

// Map applies fn to every item concurrently and returns the results in
// input order (slot i holds fn(items[i])) — the stable merge the
// determinism contract requires. fn receives the item index and the
// item; it must not touch shared mutable state.
func Map[T, R any](items []T, workers int, fn func(i int, item T) R) []R {
	out := make([]R, len(items))
	ForEach(len(items), workers, func(i int) {
		out[i] = fn(i, items[i])
	})
	return out
}

// MapStage is Map instrumented under a stage name: it records on reg
// the stage's wall clock on the obs timer of that name, plus
// "<stage>.items" (counter), "<stage>.items_per_sec",
// "<stage>.utilization" (busy worker-time / workers × wall), and
// "<stage>.workers" (gauges). The metrics are a side channel — the
// determinism contract is untouched; output stays byte-identical for
// any worker count. Instrumentation costs one clock read pair plus one
// atomic add per item, so use it for stages whose items are substantial
// (a convergence, a probe's traceroutes), not micro-loops.
func MapStage[T, R any](reg *obs.Registry, stage string, items []T, workers int, fn func(i int, item T) R) []R {
	n := len(items)
	out := make([]R, n)
	if n == 0 {
		return out
	}
	effective := min(Workers(workers), n)
	var busy atomic.Int64
	// StartStage (rather than a bare Timer) so registered stage
	// listeners see the begin/end of the fan-out live — the ledger's
	// traced runs (bench/) record these events as spans.
	stop := reg.StartStage(stage)
	start := time.Now()
	ForEach(n, workers, func(i int) {
		t0 := time.Now()
		out[i] = fn(i, items[i])
		//lint:allow hotatomic documented stage cost: one clock pair plus one atomic add per item (see MapStage doc)
		busy.Add(int64(time.Since(t0)))
	})
	wall := time.Since(start)
	stop()
	reg.Counter(stage + ".items").Add(int64(n))
	reg.Gauge(stage + ".workers").Set(float64(effective))
	if wall > 0 {
		reg.Gauge(stage + ".items_per_sec").Set(float64(n) / wall.Seconds())
		reg.Gauge(stage + ".utilization").Set(float64(busy.Load()) / (float64(wall) * float64(effective)))
	}
	return out
}
