package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"

	"routelab/internal/obs"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestForEachCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 257
		var counts [n]atomic.Int32
		ForEach(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmptyAndOversizedPool(t *testing.T) {
	ForEach(0, 8, func(int) { t.Fatal("fn called for n=0") })
	ran := 0
	ForEach(1, 64, func(i int) { ran++ })
	if ran != 1 {
		t.Fatalf("ran=%d", ran)
	}
}

// Map must return results in input order regardless of worker count —
// the stable merge the determinism contract promises.
func TestMapStableOrder(t *testing.T) {
	items := make([]int, 1000)
	for i := range items {
		items[i] = i * 3
	}
	serial := Map(items, 1, func(i, v int) int { return v*v + i })
	for _, workers := range []int{2, 4, 16} {
		got := Map(items, workers, func(i, v int) int { return v*v + i })
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], serial[i])
			}
		}
	}
}

// TestMapStageRecordsMetrics checks the instrumented variant produces
// the same stable merge AND leaves the advertised metrics behind in the
// default obs registry.
func TestMapStageRecordsMetrics(t *testing.T) {
	obs.Reset()
	t.Cleanup(obs.Reset)
	items := []int{5, 6, 7, 8, 9}
	got := MapStage(obs.Default(), "parallel-test/square", items, 2, func(i, v int) int { return v * v })
	for i, v := range items {
		if got[i] != v*v {
			t.Fatalf("slot %d = %d, want %d", i, got[i], v*v)
		}
	}
	snap := obs.Snap()
	if n := snap.Counters["parallel-test/square.items"]; n != int64(len(items)) {
		t.Errorf("items counter = %d, want %d", n, len(items))
	}
	if w := snap.Gauges["parallel-test/square.workers"]; w != 2 {
		t.Errorf("workers gauge = %v, want 2", w)
	}
	if u := snap.Gauges["parallel-test/square.utilization"]; u < 0 || u > 1.5 {
		t.Errorf("utilization gauge = %v, want a plausible ratio", u)
	}
	found := false
	for _, st := range snap.Stages {
		if st.Name == "parallel-test/square" && st.Count == 1 && st.TotalNS > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("stage timer missing or empty: %+v", snap.Stages)
	}
}

// TestForEachStageEmpty: MapStage over no items must not record a
// stage.
func TestForEachStageEmpty(t *testing.T) {
	obs.Reset()
	t.Cleanup(obs.Reset)
	MapStage(obs.Default(), "parallel-test/empty", []int{}, 4, func(int, int) int { t.Fatal("fn called for no items"); return 0 })
	for _, st := range obs.Snap().Stages {
		if st.Name == "parallel-test/empty" && st.Count != 0 {
			t.Errorf("empty stage recorded: %+v", st)
		}
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in worker was swallowed")
		}
	}()
	ForEach(100, 4, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}
