package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"routelab/internal/obs"
)

// TestBuildProgressTrackerMonotone folds a stage-event stream — with
// repeats and out-of-order arrivals, as MapStage inside phases and
// concurrent builds produce — and checks progress never moves backwards.
func TestBuildProgressTrackerMonotone(t *testing.T) {
	bp := newBuildProgress()
	d := bp.snapshot("x")
	if d.State != BuildBuilding || d.Percent != 0 || d.PhasesDone != 0 {
		t.Fatalf("fresh tracker: %+v", d)
	}

	lastPct := d.Percent
	events := []struct {
		name  string
		begin bool
	}{
		{"scenario/topology", true},
		{"scenario/topology", false},
		{"scenario/converge-historical", true},
		{"not-a-build-stage", true}, // unknown: ignored
		{"magnet", false},           // lazy stage: not in the pipeline, ignored
		{"scenario/converge-historical", false},
		{"scenario/converge-current", true},
		{"scenario/topology", true}, // out of order (another build): no regress
		{"scenario/converge-current", false},
	}
	for _, ev := range events {
		bp.event(ev.name, ev.begin)
		d := bp.snapshot("x")
		if d.Percent < lastPct {
			t.Fatalf("after %v: percent regressed %v -> %v", ev, lastPct, d.Percent)
		}
		lastPct = d.Percent
		if err := d.Validate(); err != nil {
			t.Fatalf("after %v: invalid snapshot: %v", ev, err)
		}
	}
	d = bp.snapshot("x")
	if d.PhasesDone != 3 || d.Phase != "scenario/converge-current" {
		t.Errorf("final snapshot: done %d phase %q, want 3 / scenario/converge-current", d.PhasesDone, d.Phase)
	}
	if d.Percent <= 0 || d.Percent >= 100 {
		t.Errorf("mid-build percent %v, want in (0, 100)", d.Percent)
	}
}

// TestPercentDoneCap: a build with every phase complete but not yet
// inserted must report at most 99 — 100 is reserved for the built
// state, which Validate enforces.
func TestPercentDoneCap(t *testing.T) {
	if pct := percentDone(len(buildPhases), len(buildPhases)-1); pct > 99 {
		t.Errorf("all-phases-done percent %v, want <= 99", pct)
	}
	if pct := percentDone(0, -1); pct != 0 {
		t.Errorf("nothing-started percent %v, want 0", pct)
	}
}

func TestBuildProgressValidateRejects(t *testing.T) {
	good := BuildProgressData{ID: "x", State: BuildBuilding, Phase: "scenario/topology",
		Percent: 12, PhasesDone: 1, Phases: 9}
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
// lifecycle on the wire: pending before any request, building (with a
// live phase and partial percent) while the pipeline is stalled
// mid-stage, built/100 after — and the endpoint answers instantly
// throughout instead of joining the build.
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

	// Stall the build pipeline mid-stage: a test listener registered
	// before the store's tracker blocks the builder inside the
	// snapshots phase, with earlier phases already delivered.
	stall := make(chan struct{})
	release := make(chan struct{})
	var once bool
	cancel := obs.OnStage(func(name string, begin bool) {
		if name == "scenario/snapshots" && begin && !once {
			once = true
			close(stall)
			<-release
		}
	})
	defer cancel()

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
	if !strings.HasPrefix(d.Phase, "scenario/") || d.PhasesDone < 1 {
		t.Errorf("mid-build phase %q done %d, want converge phases recorded", d.Phase, d.PhasesDone)
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
