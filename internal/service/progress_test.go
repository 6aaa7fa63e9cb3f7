package service

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"routelab/internal/obs"
	"routelab/internal/scenario"
)

// TestBuildProgressFollowsBuild polls a real store build as each of its
// phases begins, on a process's first build (no stage timer has a mean
// yet). The tracker must name the phase that is starting, count the ones
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
		{"phases_done range", func(d *BuildProgressData) { d.PhasesDone = 10 }},
		{"foreign phase", func(d *BuildProgressData) { d.Phase = "service/scenario-build" }},
		{"unlisted scenario phase", func(d *BuildProgressData) { d.Phase = "scenario/magnet" }},
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

// decodeBuild unmarshals and validates a kind "build" response body.
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
	if err := d.Validate(); err != nil {
		t.Fatalf("build payload invalid: %v", err)
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
	obs.StartStage("scenario/campaign")()
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
