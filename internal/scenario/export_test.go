package scenario

import "routelab/internal/vantage"

// BuildKeepingSnapshots is Build that also returns the monitor snapshots
// the build reduced to Scenario.Evidence and then freed, for the tests
// that pin what the collectors saw.
func BuildKeepingSnapshots(cfg Config) (*Scenario, []*vantage.Snapshot, error) {
	var snaps []*vantage.Snapshot
	s, err := build(cfg, nil, func(collected []*vantage.Snapshot) { snaps = collected })
	return s, snaps, err
}
