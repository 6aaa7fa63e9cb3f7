package service

import (
	"fmt"
	"strings"
	"sync"

	"routelab/internal/obs"
)

// Build-progress streaming: a cold scenario's first request used to be
// the only way to learn a build was running — and it blocked for the
// whole build. GET /v1/scenarios/{id}/build answers instantly with a
// phase/percent snapshot instead, fed by the obs stage events the build
// pipeline already emits, so clients poll cheaply and decide for
// themselves when to issue the real request.
//
// Like /v1/metrics, the endpoint reports history: it is NOT
// deterministic and is never cached. Resolution deliberately bypasses
// the store's Get — asking "how is the build going?" must not trigger
// the build.

// Build states reported by BuildProgressData.State.
const (
	BuildPending  = "pending"  // registered; no build running or resident
	BuildBuilding = "building" // a build is in flight
	BuildBuilt    = "built"    // a sealed scenario is resident
	BuildFailed   = "failed"   // the last build attempt errored
)

// buildPhases is the scenario build pipeline in execution order — the
// stage names internal/scenario starts (and ForEachStage/MapStage
// publish) while Build runs. The tracker walks this list as stage
// events arrive; an unknown or lazily-run stage (magnet, alternates)
// never appears here and is ignored.
var buildPhases = []string{
	"scenario/topology",
	"scenario/converge-historical",
	"scenario/converge-current",
	"scenario/snapshots",
	"scenario/inference",
	"scenario/atlas",
	"scenario/campaign",
	"scenario/lookingglass",
	"scenario/testbed",
}

// buildPhaseIdx maps a stage name to its position in buildPhases.
var buildPhaseIdx = func() map[string]int {
	m := make(map[string]int, len(buildPhases))
	for i, name := range buildPhases {
		m[name] = i
	}
	return m
}()

// defaultPhaseWeights approximates each phase's share of a build before
// any timer data exists (first build of a process). Once the obs stage
// timers have observed real builds, phaseWeights uses their means
// instead — percent estimates sharpen as the fleet runs.
var defaultPhaseWeights = map[string]float64{
	"scenario/topology":            5,
	"scenario/converge-historical": 25,
	"scenario/converge-current":    20,
	"scenario/snapshots":           10,
	"scenario/inference":           10,
	"scenario/atlas":               5,
	"scenario/campaign":            20,
	"scenario/lookingglass":        2,
	"scenario/testbed":             3,
}

// phaseWeights returns the relative cost of every build phase: the obs
// timer's mean when that phase has been observed at least once, the
// static default otherwise. Reads recorded aggregates only — no wall
// clock (walltime).
func phaseWeights() []float64 {
	reg := obs.Default()
	w := make([]float64, len(buildPhases))
	for i, name := range buildPhases {
		if mean := reg.Timer(name).Mean(); mean > 0 {
			w[i] = float64(mean)
		} else {
			w[i] = defaultPhaseWeights[name]
		}
	}
	return w
}

// percentDone folds completed phases (and half of the one in flight)
// over the phase weights into [0, 100).
func percentDone(done, inFlight int) float64 {
	w := phaseWeights()
	var total, covered float64
	for i, wi := range w {
		total += wi
		if i < done {
			covered += wi
		} else if i == inFlight && inFlight >= done {
			covered += wi / 2
		}
	}
	if total <= 0 {
		return 0
	}
	pct := 100 * covered / total
	if pct > 99 {
		pct = 99 // 100 is reserved for BuildBuilt
	}
	return pct
}

// buildProgress is the live tracker for one scenario's build attempt.
// Stage events are process-global, so with MaxBuilds > 1 a concurrent
// build's phases can advance another tracker — progress is a monotone
// estimate, not an exact cursor. (The default MaxBuilds of 1 makes it
// exact.)
type buildProgress struct {
	mu      sync.Mutex
	state   string
	phase   int // index of the deepest phase seen to begin, -1 before any
	done    int // count of phases whose end event has been seen
	lastErr string
}

func newBuildProgress() *buildProgress {
	return &buildProgress{state: BuildBuilding, phase: -1}
}

// event folds one obs stage event into the tracker. Monotone: phases
// only advance, so out-of-order or repeated events (MapStage inside a
// phase, a concurrent build's stages) never move progress backwards.
func (bp *buildProgress) event(name string, begin bool) {
	idx, ok := buildPhaseIdx[name]
	if !ok {
		return
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if begin {
		if idx > bp.phase {
			bp.phase = idx
		}
		return
	}
	if idx+1 > bp.done {
		bp.done = idx + 1
	}
}

// snapshot renders the tracker into the API payload shape.
func (bp *buildProgress) snapshot(id string) BuildProgressData {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	d := BuildProgressData{
		ID:         id,
		State:      bp.state,
		PhasesDone: bp.done,
		Phases:     len(buildPhases),
		Error:      bp.lastErr,
	}
	if bp.phase >= 0 {
		d.Phase = buildPhases[bp.phase]
	}
	switch bp.state {
	case BuildBuilding:
		d.Percent = percentDone(bp.done, bp.phase)
	case BuildBuilt:
		d.Percent = 100
		d.PhasesDone = len(buildPhases)
	}
	return d
}

// BuildProgressData is the kind "build" payload of GET
// /v1/scenarios/{id}/build and its DefaultID alias GET /v1/build
// (routelabd resolves a flag-built world before listening, so there the
// answer is always "built").
type BuildProgressData struct {
	ID    string `json:"id"`
	State string `json:"state"` // pending | building | built | failed
	// Phase is the deepest pipeline stage observed to start; empty
	// until the first stage begins (and for pending/failed snapshots).
	Phase string `json:"phase,omitempty"`
	// Percent estimates build completion in [0,100]: phase weights come
	// from observed stage-timer means (static defaults before the first
	// build). Exactly 100 if and only if state is "built".
	Percent    float64 `json:"percent"`
	PhasesDone int     `json:"phases_done"`
	Phases     int     `json:"phases"`
	Error      string  `json:"error,omitempty"`
}

// Validate checks a build payload's internal consistency — what
// cmd/apicheck verifies about served bodies beyond the envelope.
func (d BuildProgressData) Validate() error {
	if d.ID == "" {
		return fmt.Errorf("missing id")
	}
	switch d.State {
	case BuildPending, BuildBuilding, BuildBuilt, BuildFailed:
	default:
		return fmt.Errorf("unknown state %q", d.State)
	}
	if d.Percent < 0 || d.Percent > 100 {
		return fmt.Errorf("percent %v out of [0,100]", d.Percent)
	}
	if (d.Percent == 100) != (d.State == BuildBuilt) {
		return fmt.Errorf("percent %v inconsistent with state %q", d.Percent, d.State)
	}
	if d.PhasesDone < 0 || d.PhasesDone > d.Phases {
		return fmt.Errorf("phases_done %d out of [0,%d]", d.PhasesDone, d.Phases)
	}
	if d.Phase != "" && !strings.HasPrefix(d.Phase, "scenario/") {
		return fmt.Errorf("phase %q is not a scenario build stage", d.Phase)
	}
	if d.State == BuildFailed && d.Error == "" {
		return fmt.Errorf("failed state without error detail")
	}
	return nil
}
