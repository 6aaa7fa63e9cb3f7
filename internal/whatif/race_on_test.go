//go:build race

package whatif_test

// raceEnabled lets allocation guards skip under the race detector, whose
// instrumentation changes allocation counts.
const raceEnabled = true
