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

// ForgetAlternates gives s an empty discovery memo, as a fresh build
// has: the next Alternates call walks every target it is asked for. A
// shallow copy of a Scenario shares its memo until it calls this.
func (s *Scenario) ForgetAlternates() { s.alternates = new(alternatesMemo) }
