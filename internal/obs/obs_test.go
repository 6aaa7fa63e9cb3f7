package obs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentUpdates hammers one counter, one gauge, and one timer
// from many goroutines; under -race this doubles as the data-race gate
// for every update path.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry(nil)
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("hits").Inc()
				r.Gauge("load").Set(float64(g))
				r.Timer("stage").Observe(time.Duration(i%7+1) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()

	snap := r.Snapshot()
	if got, want := snap.Counters["hits"], int64(goroutines*perG); got != want {
		t.Errorf("hits = %d, want %d", got, want)
	}
	if len(snap.Stages) != 1 {
		t.Fatalf("stages = %v, want one", snap.Stages)
	}
	st := snap.Stages[0]
	if st.Count != goroutines*perG {
		t.Errorf("stage count = %d, want %d", st.Count, goroutines*perG)
	}
	if st.MinNS <= 0 || st.MaxNS < st.MinNS || st.TotalNS < st.MaxNS {
		t.Errorf("implausible stage aggregate: %+v", st)
	}
	if st.MeanNS <= 0 || st.MeanNS > st.MaxNS || st.MeanNS < st.MinNS {
		t.Errorf("mean %d outside [min %d, max %d]", st.MeanNS, st.MinNS, st.MaxNS)
	}
}

// TestConcurrentLookup races get-or-create on the same names; every
// goroutine must get the same handle.
func TestConcurrentLookup(t *testing.T) {
	r := NewRegistry(nil)
	const goroutines = 32
	handles := make([]*Counter, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			handles[g] = r.Counter("shared")
			handles[g].Inc()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if handles[g] != handles[0] {
			t.Fatalf("goroutine %d got a different handle", g)
		}
	}
	if got := r.Counter("shared").Value(); got != goroutines {
		t.Errorf("shared = %d, want %d", got, goroutines)
	}
}

// TestSnapshotDeterminism takes two snapshots of a quiescent registry
// and requires them — and their JSON renderings — to be identical.
func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry(nil)
	// Register in an order unlike the sorted output.
	r.Counter("z.last").Add(3)
	r.Counter("a.first").Add(1)
	r.Gauge("m.middle").Set(0.25)
	r.Timer("stage/b").Observe(2 * time.Millisecond)
	r.Timer("stage/a").Observe(time.Millisecond)
	r.Timer("stage/a").Observe(3 * time.Millisecond)

	s1, s2 := r.Snapshot(), r.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", s1, s2)
	}
	j1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("JSON renderings differ:\n%s\n%s", j1, j2)
	}
	if s1.Stages[0].Name != "stage/a" || s1.Stages[1].Name != "stage/b" {
		t.Errorf("stages not sorted by name: %+v", s1.Stages)
	}
	if got := s1.Stages[0]; got.Count != 2 || got.MinNS != int64(time.Millisecond) ||
		got.MaxNS != int64(3*time.Millisecond) || got.TotalNS != int64(4*time.Millisecond) {
		t.Errorf("stage/a aggregate wrong: %+v", got)
	}
}

// TestResetPreservesHandles verifies Reset zeroes metrics without
// detaching previously obtained handles or forgetting names.
func TestResetPreservesHandles(t *testing.T) {
	r := NewRegistry(nil)
	c := r.Counter("events")
	c.Add(41)
	r.Timer("stage").Observe(time.Second)
	r.Gauge("g").Set(9)
	r.Reset()

	snap := r.Snapshot()
	if snap.Counters["events"] != 0 || snap.Gauges["g"] != 0 {
		t.Errorf("reset left values: %+v", snap)
	}
	if len(snap.Stages) != 1 || snap.Stages[0].Count != 0 {
		t.Errorf("reset dropped or kept timer state: %+v", snap.Stages)
	}
	c.Inc()
	if got := r.Counter("events").Value(); got != 1 {
		t.Errorf("handle detached by Reset: events = %d, want 1", got)
	}
}

// TestStartStageRecordsWallTime checks a stage's start/stop records one
// plausible observation on its timer.
func TestStartStageRecordsWallTime(t *testing.T) {
	r := NewRegistry(nil)
	stop := r.StartStage("stage")
	time.Sleep(time.Millisecond)
	stop()
	st := r.Snapshot().Stages[0]
	if st.Count != 1 || st.TotalNS < int64(time.Millisecond) {
		t.Errorf("start/stop recorded %+v, want count 1 and >= 1ms", st)
	}
}

// TestReportRoundTrip asserts a -metrics-json Report survives
// encoding/json both ways, byte- and value-exact.
func TestReportRoundTrip(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("bgp.converge.calls").Add(12)
	r.Counter("scenario.decisions").Add(3400)
	r.Gauge("scenario/campaign.items_per_sec").Set(512.5)
	r.Timer("scenario/topology").Observe(7 * time.Millisecond)

	rep := NewReport()
	rep.Command = "routelab -scale 0.1 table1"
	rep.Experiment = "table1"
	rep.Seed = 2015
	rep.Scale = 0.1
	rep.Workers = 4
	rep.WallNS = int64(3 * time.Second)
	rep.Metrics = r.Snapshot()

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("round trip changed the report:\n%+v\n%+v", rep, back)
	}
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("re-marshal differs:\n%s\n%s", data, data2)
	}
}

// TestReportWriteFile exercises the file path quickstart CI depends on.
func TestReportWriteFile(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("c").Inc()
	rep := NewReport()
	rep.Metrics = r.Snapshot()
	path := t.TempDir() + "/metrics.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var back Report
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", back.Schema, ReportSchema)
	}
}

// TestDefaultHelpers sanity-checks the package-level Snap and Reset
// against the default registry.
func TestDefaultHelpers(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Default().Counter("test.counter").Inc()
	Default().Counter("test.counter").Inc()
	Default().Counter("test.counter").Inc()
	Default().Gauge("test.gauge").Set(1.5)
	Default().StartStage("test.stage")()
	done := Default().StartStage("test.stage")
	done()
	snap := Snap()
	if snap.Counters["test.counter"] != 3 {
		t.Errorf("counter = %d, want 3", snap.Counters["test.counter"])
	}
	if snap.Gauges["test.gauge"] != 1.5 {
		t.Errorf("gauge = %v, want 1.5", snap.Gauges["test.gauge"])
	}
	found := false
	for _, st := range snap.Stages {
		if st.Name == "test.stage" && st.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("stage not aggregated: %+v", snap.Stages)
	}
}

// TestOnStageListeners checks the stage-event subscription contract:
// begin/end pairs in order, multiple listeners, and that cancel stops
// delivery immediately.
func TestOnStageListeners(t *testing.T) {
	r := NewRegistry(nil)
	type ev struct {
		name  string
		begin bool
	}
	var got []ev
	cancel := r.OnStage(func(name string, begin bool) {
		got = append(got, ev{name, begin})
	})

	stop := r.StartStage("phase/a")
	stop()
	r.StartStage("phase/b")()

	want := []ev{{"phase/a", true}, {"phase/a", false}, {"phase/b", true}, {"phase/b", false}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %+v, want %+v", got, want)
	}

	cancel()
	r.StartStage("phase/c")()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("listener fired after cancel: %+v", got)
	}

	// The timer still aggregates even with no listeners attached.
	snap := r.Snapshot()
	names := map[string]int64{}
	for _, st := range snap.Stages {
		names[st.Name] = st.Count
	}
	for _, n := range []string{"phase/a", "phase/b", "phase/c"} {
		if names[n] != 1 {
			t.Errorf("stage %q count = %d, want 1", n, names[n])
		}
	}
}

// TestOnStageConcurrent subscribes and unsubscribes while stages run on
// other goroutines — a -race check that the listener table is safe.
func TestOnStageConcurrent(t *testing.T) {
	r := NewRegistry(nil)
	var fired atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.StartStage("phase/hot")()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cancel := r.OnStage(func(string, bool) { fired.Add(1) })
				cancel()
			}
		}()
	}
	wg.Wait()
}

// TestOnStageCancelWaitsForDispatch: cancel returns only once no call of
// its listener is in flight, and a dispatch already under way skips a
// listener cancelled before the dispatch reached it.
func TestOnStageCancelWaitsForDispatch(t *testing.T) {
	r := NewRegistry(nil)
	entered, release := make(chan struct{}), make(chan struct{})
	var aCalls, bCalls atomic.Int64
	cancelA := r.OnStage(func(_ string, begin bool) {
		aCalls.Add(1)
		if begin {
			close(entered)
			<-release
		}
	})
	cancelB := r.OnStage(func(string, bool) { bCalls.Add(1) })

	done := make(chan struct{})
	go func() {
		r.StartStage("x")()
		close(done)
	}()
	<-entered // A blocks inside the begin of x; B has not been called
	cancelB()
	cancelledA := make(chan struct{})
	go func() {
		cancelA()
		close(cancelledA)
	}()
	select {
	case <-cancelledA:
		t.Error("cancel returned while its listener was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-cancelledA
	<-done
	if got := bCalls.Load(); got != 0 {
		t.Errorf("listener cancelled mid-dispatch was called %d times after its cancel returned", got)
	}
	if got := aCalls.Load(); got != 1 {
		t.Errorf("blocking listener called %d times, want its one begin", got)
	}
}

// TestChildReachesParent: every update on a child's metrics lands on the
// parent's metric of the same name, and a stage begun on the child
// reaches the parent's listeners after the child's, with one duration
// recorded on both timers.
func TestChildReachesParent(t *testing.T) {
	parent := NewRegistry(nil)
	child := NewRegistry(parent)
	var events []string
	parent.OnStage(func(name string, begin bool) { events = append(events, fmt.Sprint("parent ", name, " ", begin)) })
	child.OnStage(func(name string, begin bool) {
		if begin && !listsStage(child, name) {
			t.Errorf("child listener heard %s begin before its timer was listed", name)
		}
		events = append(events, fmt.Sprint("child ", name, " ", begin))
	})

	child.Counter("c").Add(3)
	child.Counter("c").Inc()
	child.Gauge("g").Set(2.5)
	child.Timer("t").Observe(time.Millisecond)
	stop := child.StartStage("s")
	if !listsStage(parent, "s") || !listsStage(child, "s") {
		t.Error("a stage begun on the child is not listed on both registries")
	}
	stop()

	want := []string{"child s true", "parent s true", "child s false", "parent s false"}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("stage events %q, want %q", events, want)
	}
	ps, cs := parent.Snapshot(), child.Snapshot()
	if ps.Counters["c"] != 4 || cs.Counters["c"] != 4 {
		t.Errorf("counter: parent %d, child %d, want 4 each", ps.Counters["c"], cs.Counters["c"])
	}
	if ps.Gauges["g"] != 2.5 || cs.Gauges["g"] != 2.5 {
		t.Errorf("gauge: parent %v, child %v, want 2.5 each", ps.Gauges["g"], cs.Gauges["g"])
	}
	if !reflect.DeepEqual(ps.Stages, cs.Stages) {
		t.Errorf("timers differ:\nparent %+v\nchild  %+v", ps.Stages, cs.Stages)
	}
	if len(cs.Stages) != 2 || cs.Stages[0].Count != 1 || cs.Stages[1].Count != 1 {
		t.Errorf("child stages %+v, want s and t once each", cs.Stages)
	}
}

// listsStage reports whether r's snapshot lists a stage named name.
func listsStage(r *Registry, name string) bool {
	return slices.ContainsFunc(r.Snapshot().Stages, func(st StageStat) bool { return st.Name == name })
}

// TestChildSurvivesParentReset: Reset on a parent zeroes the parent
// only; the child keeps its record and still forwards.
func TestChildSurvivesParentReset(t *testing.T) {
	parent := NewRegistry(nil)
	child := NewRegistry(parent)
	child.Counter("c").Add(5)
	child.Gauge("g").Set(1)
	child.StartStage("s")()
	parent.Reset()

	cs := child.Snapshot()
	if cs.Counters["c"] != 5 || cs.Gauges["g"] != 1 || cs.Stages[0].Count != 1 {
		t.Errorf("parent Reset moved the child: %+v", cs)
	}
	child.Counter("c").Inc()
	if got := parent.Counter("c").Value(); got != 1 {
		t.Errorf("parent counter after reset and one child Inc = %d, want 1", got)
	}
}

// TestConcurrentChildrenSumOnParent: two children updated from many
// goroutines at once each hold their own total, and the parent holds
// their sum exactly.
func TestConcurrentChildrenSumOnParent(t *testing.T) {
	parent := NewRegistry(nil)
	children := []*Registry{NewRegistry(parent), NewRegistry(parent)}
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for k, child := range children {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					child.Counter("hits").Add(int64(k + 1))
					child.StartStage("stage")()
				}
			}()
		}
	}
	wg.Wait()
	for k, child := range children {
		if got, want := child.Counter("hits").Value(), int64((k+1)*goroutines*perG); got != want {
			t.Errorf("child %d: hits = %d, want %d", k, got, want)
		}
	}
	if got, want := parent.Counter("hits").Value(), int64(3*goroutines*perG); got != want {
		t.Errorf("parent hits = %d, want %d", got, want)
	}
	if got, want := parent.Snapshot().Stages[0].Count, int64(2*goroutines*perG); got != want {
		t.Errorf("parent stage count = %d, want %d", got, want)
	}
}
