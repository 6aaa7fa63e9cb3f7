package scenario_test

import (
	"testing"

	"routelab/internal/scenario"
	"routelab/internal/spec"
)

// TestMagnetCampaignMatchesReferenceOnBatchWorld: on the benchmark's
// batch world (bench/worlds/batch.yaml, 1,009 ASes), the dense walk's
// decisions equal the map-based reference's at seeds 0–31.
func TestMagnetCampaignMatchesReferenceOnBatchWorld(t *testing.T) {
	exp, err := spec.Expand("../../bench/worlds/batch.yaml", nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Build(exp.Config, nil)
	if err != nil {
		t.Fatal(err)
	}
	scenario.MagnetCampaignMatchesReference(t, s, 32)
}
