// Package hotatomic exercises the worker-body half of the hotatomic
// rule: per-item atomics or obs calls inside function literals handed
// to the parallel fan-out entry points are flagged.
package hotatomic

import (
	"sync/atomic"

	"routelab/internal/obs"
	"routelab/internal/parallel"
)

func workerBad(n int) int64 {
	var total atomic.Int64
	parallel.MapStage(obs.Default(), "fixture/bad", make([]int, n), 0, func(i, _ int) int {
		total.Add(1)                                 //lint:want hotatomic
		obs.Default().Counter("fixture.items").Inc() //lint:want hotatomic
		return i
	})
	return total.Load()
}

// workerGood writes only to its index-owned slot and batches after the
// merge barrier: the sanctioned shape.
func workerGood(items []int) int64 {
	out := parallel.Map(items, 0, func(i int, v int) int64 {
		return int64(v * v)
	})
	var sum int64
	for _, v := range out {
		sum += v
	}
	return sum
}

func workerSuppressed(n int) int64 {
	var total atomic.Int64
	parallel.ForEach(n, 0, func(i int) {
		//lint:allow hotatomic fixture demonstrates suppression
		total.Add(1)
	})
	return total.Load()
}
