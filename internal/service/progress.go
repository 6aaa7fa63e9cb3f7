package service

import (
	"fmt"
	"slices"
	"sync"

	"routelab/internal/scenario"
)

// Build-progress streaming: a cold scenario's first request used to be
// the only way to learn a build was running — and it blocked for the
// whole build. GET /v1/scenarios/{id}/build answers instantly with a
// phase/percent snapshot instead, fed by the build's own scenario.Logf
// callback, so clients poll cheaply and decide for themselves when to
// issue the real request.
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

// percentDone is the share of scenario.Phases a build has finished when
// phase (an index, -1 before the first) is running: the phases before
// it, plus half of it. Capped at 99 — 100 is reserved for BuildBuilt.
func percentDone(phase int) float64 {
	if phase < 0 {
		return 0
	}
	return min(99, 100*(float64(phase)+0.5)/float64(len(scenario.Phases)))
}

// buildProgress is the live tracker for one scenario's build attempt:
// the index in scenario.Phases that the build's own Logf callback last
// reported. Nothing else writes it, so it is an exact cursor.
type buildProgress struct {
	mu      sync.Mutex
	state   string
	phase   int // -1 before the first phase begins
	lastErr string
}

func newBuildProgress() *buildProgress {
	return &buildProgress{state: BuildBuilding, phase: -1}
}

// at records that the build is in phase.
func (bp *buildProgress) at(phase int) {
	bp.mu.Lock()
	bp.phase = phase
	bp.mu.Unlock()
}

// snapshot renders the tracker into the API payload shape.
func (bp *buildProgress) snapshot(id string) BuildProgressData {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	d := BuildProgressData{
		ID:     id,
		State:  bp.state,
		Phases: len(scenario.Phases),
		Error:  bp.lastErr,
	}
	if bp.phase >= 0 {
		d.Phase = scenario.Phases[bp.phase]
		d.PhasesDone = bp.phase
	}
	switch bp.state {
	case BuildBuilding:
		d.Percent = percentDone(bp.phase)
	case BuildBuilt:
		d.Percent = 100
		d.PhasesDone = len(scenario.Phases)
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
	// Phase is the scenario.Phases entry the build last began; empty
	// until the first phase begins (and for pending snapshots).
	Phase string `json:"phase,omitempty"`
	// Percent is the share of Phases done, counting the running one as
	// half done. Exactly 100 if and only if state is "built".
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
	if d.Phases != len(scenario.Phases) {
		return fmt.Errorf("phases %d, want %d", d.Phases, len(scenario.Phases))
	}
	if d.PhasesDone < 0 || d.PhasesDone > d.Phases {
		return fmt.Errorf("phases_done %d out of [0,%d]", d.PhasesDone, d.Phases)
	}
	if d.Phase != "" {
		idx := slices.Index(scenario.Phases, d.Phase)
		if idx < 0 {
			return fmt.Errorf("phase %q is not a scenario build phase", d.Phase)
		}
		if d.State == BuildBuilding && d.PhasesDone != idx {
			return fmt.Errorf("phases_done %d while building phase %q (index %d)", d.PhasesDone, d.Phase, idx)
		}
	}
	if d.State == BuildFailed && d.Error == "" {
		return fmt.Errorf("failed state without error detail")
	}
	return nil
}
