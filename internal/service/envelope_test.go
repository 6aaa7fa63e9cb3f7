package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"routelab/internal/obs"
	"routelab/internal/whatif"
)

// TestMarshalEnvelopeIsMarshal: appending the payload to the envelope's
// head yields the bytes json.Marshal gives for the whole Envelope (plus
// the newline), for a payload of every kind the API emits and for
// strings json escapes, HTML's <, > and & among them.
func TestMarshalEnvelopeIsMarshal(t *testing.T) {
	const awkward = `<a href="x">&amp;</a> \ line` + "\u2028\tend"
	payloads := []struct {
		kind string
		data any
	}{
		{"health", HealthData{Status: "ok", Seed: 7, Scale: 0.15, ASes: 300, Experiments: []string{"table1", "figure1"}}},
		{"metrics", MetricsData{Metrics: obs.Snap()}},
		{"classify", ClassifyData{Trace: 3, SrcAS: "AS1", ASPath: []string{"AS1", "AS2"}, Decisions: []ClassifyDecision{
			{At: "AS1", Via: "AS2", RestLen: 2, Categories: map[string]string{"Simple": "Best/Short", "All-2": "NonBest/Long"}},
		}}},
		{"alternates", AlternatesData{Target: "AS9", Announcements: 4, Steps: []AlternateStepData{
			{NextHop: "AS2", Path: "AS2 AS9", Poisoned: []string{"AS3"}, Inferred: "customer"},
		}}},
		{"experiment", ExperimentData{Name: "ablations", Seed: 7, Result: map[string]any{
			"rows": []float64{0.1, 1e21, 1.0 / 3}, "note": awkward, "none": nil,
		}}},
		{"as", ASData{ASN: "AS1", InferredDegree: 2, InferredNeighbors: map[string]int{"AS2": 1, "AS3": -1}}},
		{"whatif", WhatIfData{Prefix: "10.0.0.0/24", Origin: "AS1", Deltas: 1, Results: []whatif.Diff{{Delta: "link-down AS1 AS2", Kind: "link_down"}}}},
		{"scenarios", ScenariosData{Count: 1, Scenarios: []ScenarioInfo{{ID: "smoke", Description: awkward, Seed: 1}}}},
		{"scenario", ScenarioData{Scenario: ScenarioInfo{ID: "smoke", Built: true, SizeBytes: 1 << 20}}},
		{"build", BuildProgressData{ID: "smoke", State: BuildBuilding, Phase: "scenario/judge", Percent: 95.5}},
		{"error", ErrorData{Error: awkward, Code: CodeBadParam}},
		{"error", awkward},
	}
	covered := map[string]bool{}
	for _, p := range payloads {
		covered[p.kind] = true
		got, err := marshalEnvelope(p.kind, p.data)
		if err != nil {
			t.Fatalf("%s: %v", p.kind, err)
		}
		raw, err := json.Marshal(p.data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(Envelope{Schema: Schema, Kind: p.kind, Data: raw})
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", p.kind, got, want)
		}
	}
	for _, k := range Kinds {
		if !covered[k] {
			t.Errorf("no payload of kind %q", k)
		}
	}
	if _, err := marshalEnvelope("error", func() {}); err == nil {
		t.Error("an unmarshalable payload encoded without error")
	}
}
