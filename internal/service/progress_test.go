package service

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"routelab/internal/obs"
	"routelab/internal/scenario"
)

// TestBuildProgressFollowsBuild polls a real store build as each of its
// phases begins, on a process's first build (no stage timer has a mean
// yet). Its progress must name the phase that is starting, count the ones
// before it as done, and rise strictly while staying below 100.
func TestBuildProgressFollowsBuild(t *testing.T) {
	obs.Reset()
	st := NewStore(StoreConfig{})
	if err := st.Register(testExpansion("alpha", 1), "test"); err != nil {
		t.Fatal(err)
	}
	// Stage listeners run on the building goroutine: this one, in Get.
	var seen []BuildProgressData
	defer obs.OnStage(func(name string, begin bool) {
		if !begin || !slices.Contains(scenario.Phases, name) {
			return
		}
		d, err := st.BuildProgress("alpha")
		if err != nil {
			t.Error(err)
		}
		seen = append(seen, d)
	})()
	if _, err := st.Get(context.Background(), "alpha"); err != nil {
		t.Fatal(err)
	}

	if len(seen) != len(scenario.Phases) {
		t.Fatalf("%d phase begins observed, want %d", len(seen), len(scenario.Phases))
	}
	last := -1.0
	for i, d := range seen {
		if err := d.Validate(); err != nil {
			t.Errorf("phase %d: invalid snapshot %+v: %v", i, d, err)
		}
		if d.State != BuildBuilding || d.Phase != scenario.Phases[i] || d.PhasesDone != i {
			t.Errorf("as %s begins: %s in %q with %d done, want building in it with %d done",
				scenario.Phases[i], d.State, d.Phase, d.PhasesDone, i)
		}
		if d.Percent <= last || d.Percent >= 100 {
			t.Errorf("as %s begins: percent %v after %v, want rising below 100", scenario.Phases[i], d.Percent, last)
		}
		last = d.Percent
	}
}

// TestPercentDoneCap: a build in its last phase but not yet inserted
// must report under 100 — 100 is reserved for the built state, which
// Validate enforces.
func TestPercentDoneCap(t *testing.T) {
	if pct := percentDone(len(scenario.Phases) - 1); pct > 99 {
		t.Errorf("last-phase percent %v, want <= 99", pct)
	}
	if pct := percentDone(-1); pct != 0 {
		t.Errorf("nothing-started percent %v, want 0", pct)
	}
}

func TestBuildProgressValidateRejects(t *testing.T) {
	good := BuildProgressData{ID: "x", State: BuildBuilding, Phase: scenario.Phases[2],
		Percent: 27, PhasesDone: 2, Phases: len(scenario.Phases)}
	if err := good.Validate(); err != nil {
		t.Fatalf("good payload rejected: %v", err)
	}
	cases := []struct {
		name   string
		break_ func(*BuildProgressData)
	}{
		{"missing id", func(d *BuildProgressData) { d.ID = "" }},
		{"unknown state", func(d *BuildProgressData) { d.State = "cooking" }},
		{"percent range", func(d *BuildProgressData) { d.Percent = 101 }},
		{"100 without built", func(d *BuildProgressData) { d.Percent = 100 }},
		{"built without 100", func(d *BuildProgressData) { d.State = BuildBuilt }},
		{"phases_done range", func(d *BuildProgressData) { d.PhasesDone = len(scenario.Phases) + 1 }},
		{"foreign phase", func(d *BuildProgressData) { d.Phase = "service/scenario-build" }},
		{"unlisted scenario phase", func(d *BuildProgressData) { d.Phase = "scenario/alternates" }}, // a stage Build never begins
		{"phase count", func(d *BuildProgressData) { d.Phases = len(scenario.Phases) - 1 }},
		{"phases_done behind phase", func(d *BuildProgressData) { d.PhasesDone = 1 }},
		{"phases_done past phase", func(d *BuildProgressData) { d.PhasesDone = 3 }},
		{"failed without error", func(d *BuildProgressData) { d.State = BuildFailed; d.Percent = 0 }},
	}
	for _, tc := range cases {
		d := good
		tc.break_(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: broken payload accepted", tc.name)
		}
	}
}

// decodeBuild unmarshals a kind "build" response body (checkEnvelope
// validates the payload).
func decodeBuild(t *testing.T, body string) BuildProgressData {
	t.Helper()
	env := checkEnvelope(t, body)
	if env.Kind != "build" {
		t.Fatalf("kind %q, want build", env.Kind)
	}
	var d BuildProgressData
	if err := json.Unmarshal(env.Data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFleetBuildProgressEndpoint walks one scenario through its
// lifecycle on the wire: pending before any request, building (in the
// stalled phase, with a partial percent) while the pipeline is stalled
// mid-stage, built/100 after — and the endpoint answers instantly
// throughout instead of joining the build. A stage some other code
// starts meanwhile (ablations re-run the campaign on any tenant) must
// not move the stalled build's progress.
func TestFleetBuildProgressEndpoint(t *testing.T) {
	obs.Reset()
	_, ts := newTestFleet(t, StoreConfig{}, testExpansion("alpha", 1))
	buildURL := ts.URL + "/v1/scenarios/alpha/build"

	status, body := get(t, buildURL)
	if status != http.StatusOK {
		t.Fatalf("pending poll: status %d\n%s", status, body)
	}
	if d := decodeBuild(t, body); d.State != BuildPending || d.Percent != 0 {
		t.Fatalf("before any request: %+v, want pending/0", d)
	}

	// Stall the build pipeline as the snapshots phase begins, with
	// earlier phases already delivered.
	stall := make(chan struct{})
	release := make(chan struct{})
	defer obs.OnStage(func(name string, begin bool) {
		if name == "scenario/snapshots" && begin {
			close(stall)
			<-release
		}
	})()

	done := make(chan int, 1)
	go func() {
		s, _, err := getErr(ts.URL + "/v1/scenarios/alpha/healthz")
		if err != nil {
			t.Error(err)
		}
		done <- s
	}()
	<-stall

	status, body = get(t, buildURL)
	if status != http.StatusOK {
		t.Fatalf("mid-build poll blocked or failed: status %d", status)
	}
	d := decodeBuild(t, body)
	if d.State != BuildBuilding {
		t.Errorf("mid-build state %q, want building", d.State)
	}
	if d.Percent <= 0 || d.Percent >= 100 {
		t.Errorf("mid-build percent %v, want in (0, 100)", d.Percent)
	}
	if want := slices.Index(scenario.Phases, "scenario/snapshots"); d.Phase != "scenario/snapshots" || d.PhasesDone != want {
		t.Errorf("mid-build phase %q done %d, want scenario/snapshots with %d done", d.Phase, d.PhasesDone, want)
	}
	obs.Default().StartStage("scenario/campaign")()
	if _, body = get(t, buildURL); decodeBuild(t, body) != d {
		t.Errorf("a campaign stage outside the build moved its progress: %+v, then %s", d, body)
	}

	close(release)
	if s := <-done; s != http.StatusOK {
		t.Fatalf("build request: status %d", s)
	}
	status, body = get(t, buildURL)
	if status != http.StatusOK {
		t.Fatal("built poll failed")
	}
	if d := decodeBuild(t, body); d.State != BuildBuilt || d.Percent != 100 || d.PhasesDone != d.Phases {
		t.Errorf("after build: %+v, want built/100", d)
	}

	// Unknown ids 404 through the same typed-envelope path.
	status, body = get(t, ts.URL+"/v1/scenarios/nope/build")
	if status != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404\n%s", status, body)
	}
}

// TestSingleScenarioBuildEndpoint: a fleet of one holds its world
// resident before serving, so the GET /v1/build alias is built/100.
func TestSingleScenarioBuildEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v1/build")
	if status != http.StatusOK {
		t.Fatalf("status %d\n%s", status, body)
	}
	if d := decodeBuild(t, body); d.State != BuildBuilt || d.Percent != 100 {
		t.Errorf("fleet of one: %+v, want built/100", d)
	}
}

// TestBuildProgressAcrossEviction pins the states a scenario's build
// passes through around an eviction and a failure, under a byte budget
// that holds one tenant. First: pending, built, pending again once a
// second tenant evicts it (and still pending while its rebuild waits in
// the build gate), then built again. Second: after a failed build, a
// retry waiting in the gate reads failed until it is admitted. Every
// admitted build reads building from the moment it holds the gate.
func TestBuildProgressAcrossEviction(t *testing.T) {
	size := measureTenantBytes(t)
	st := NewStore(StoreConfig{MaxScenarioBytes: size + size/2})
	for i, id := range []string{"alpha", "beta", "gamma"} {
		if err := st.Register(testExpansion(id, int64(i+1)), "test"); err != nil {
			t.Fatal(err)
		}
	}
	state := func(id string) string {
		t.Helper()
		d, err := st.BuildProgress(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: invalid snapshot %+v: %v", id, d, err)
		}
		return d.State
	}
	expect := func(id, want string) {
		t.Helper()
		if got := state(id); got != want {
			t.Errorf("%s: state %q, want %q", id, got, want)
		}
	}
	build := func(id string) {
		t.Helper()
		if _, err := st.Get(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}

	// The hook records each admitted build's own state, panics for a
	// failing id, and parks gamma's build while hold is open.
	var (
		mu       sync.Mutex
		admitted []string
		failing  atomic.Value // string: the id whose build panics
		hold     chan struct{}
	)
	failing.Store("")
	entered := make(chan struct{}, 1)
	st.buildHook = func(id string) {
		d, _ := st.BuildProgress(id)
		mu.Lock()
		admitted = append(admitted, id+"="+d.State)
		h := hold
		mu.Unlock()
		if id == failing.Load() {
			panic("scenario: broken invariant")
		}
		if id == "gamma" && h != nil {
			entered <- struct{}{}
			<-h
		}
	}
	// queueBehindGamma parks gamma's build in the gate, starts a build of
	// id that queues behind it, and returns once id waits in the gate.
	queueBehindGamma := func(id string) (release func()) {
		t.Helper()
		mu.Lock()
		hold = make(chan struct{})
		h := hold
		mu.Unlock()
		var wg sync.WaitGroup
		for _, b := range []string{"gamma", id} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := st.Get(context.Background(), b); err != nil {
					t.Error(err)
				}
			}()
			if b == "gamma" {
				<-entered
			}
		}
		waitUntil(t, id+" to queue on the build gate", func() bool { return st.buildGate.Waiting() == 1 })
		return func() {
			mu.Lock()
			hold = nil
			mu.Unlock()
			close(h)
			wg.Wait()
		}
	}

	expect("alpha", BuildPending)
	build("alpha")
	expect("alpha", BuildBuilt)
	build("beta")
	if n := builtLen(st); n != 1 {
		t.Fatalf("builtLen = %d, want 1 (the budget holds one tenant)", n)
	}
	expect("alpha", BuildPending)
	expect("beta", BuildBuilt)
	release := queueBehindGamma("alpha")
	expect("alpha", BuildPending)
	release()
	expect("alpha", BuildBuilt)

	failing.Store("beta")
	if _, err := st.Get(context.Background(), "beta"); err == nil {
		t.Fatal("beta's panicking build succeeded")
	}
	failing.Store("")
	expect("beta", BuildFailed)
	release = queueBehindGamma("beta")
	expect("beta", BuildFailed)
	release()
	expect("beta", BuildBuilt)

	want := []string{"alpha", "beta", "gamma", "alpha", "beta", "gamma", "beta"}
	if len(admitted) != len(want) {
		t.Fatalf("admitted builds %v, want %v", admitted, want)
	}
	for i, id := range want {
		if admitted[i] != id+"="+BuildBuilding {
			t.Errorf("admitted build %d: %s, want %s=%s", i, admitted[i], id, BuildBuilding)
		}
	}
}
