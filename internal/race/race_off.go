//go:build !race

// Package race reports whether the race detector is compiled in, for
// the allocation ceilings (testing.AllocsPerRun guards in internal/bgp,
// internal/whatif and the analysis-plane packages): the detector's
// instrumentation changes allocation counts, so they skip under -race.
package race

// Enabled is true in a -race build.
const Enabled = false
