// Package parallel is a fixture stub of the real fan-out layer:
// function literals handed to these entry points are worker bodies,
// the hotatomic rule's second scope.
package parallel

import "routelab/internal/obs"

// ForEach runs fn(i) for i in [0, n).
func ForEach(n, workers int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// Map applies fn to every item, results in input order.
func Map[T, R any](items []T, workers int, fn func(i int, item T) R) []R {
	out := make([]R, len(items))
	for i, item := range items {
		out[i] = fn(i, item)
	}
	return out
}

// MapStage is the instrumented Map.
func MapStage[T, R any](reg *obs.Registry, stage string, items []T, workers int, fn func(i int, item T) R) []R {
	return Map(items, workers, fn)
}
