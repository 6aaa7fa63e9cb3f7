package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
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

// TestReadEnvelopeRejectsTrailingBytes: ReadEnvelope reads one
// envelope and nothing after it but whitespace, so a body with a
// second value or junk appended fails, and a served body, which ends
// in a newline, passes.
func TestReadEnvelopeRejectsTrailingBytes(t *testing.T) {
	body, err := marshalEnvelope("health", HealthData{Status: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	head := body[:len(body)-1] // without the newline
	for _, tail := range []string{"", "\n", "\r\n", " \t\n\n"} {
		if _, err := ReadEnvelope(bytes.NewReader(append(slices.Clip(head), tail...))); err != nil {
			t.Errorf("envelope + %q rejected: %v", tail, err)
		}
	}
	for _, tail := range []string{`{"garbage`, ` trailing junk`, "\n{}", string(body), "\nnull", "]"} {
		if _, err := ReadEnvelope(bytes.NewReader(append(slices.Clip(body), tail...))); err == nil {
			t.Errorf("envelope + %q accepted", tail)
		}
	}
}

// referenceReadEnvelope is how ReadEnvelope read a body before it
// scanned it once: decode, then Validate, which scans the data again,
// and whatever follows the envelope unread.
func referenceReadEnvelope(body []byte) (Envelope, error) {
	var e Envelope
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&e); err != nil {
		return e, err
	}
	return e, e.Validate()
}

// trailsEnvelope reports whether body holds more than whitespace after
// its first JSON value.
func trailsEnvelope(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	var v json.RawMessage
	if dec.Decode(&v) != nil {
		return false
	}
	return len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
}

// FuzzReadEnvelope holds ReadEnvelope, which scans a body once, to the
// decode-then-Validate reference, with arbitrary bodies seeded by one
// served body of every envelope kind. Properties:
//
//   - it never panics;
//   - it accepts only what the reference accepts, and everything the
//     reference accepts with nothing but whitespace after the envelope;
//   - what it accepts has the reference's schema, kind and data bytes,
//     and the data is valid JSON.
func FuzzReadEnvelope(f *testing.F) {
	s := testScenario(f)
	_, ts := newTestServer(f, Config{})
	fetch := func(method, path, doc string) []byte {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(doc))
		if err != nil {
			f.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			f.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	kinds := map[string]bool{}
	for _, q := range []struct{ method, path, doc string }{
		{http.MethodGet, "/v1/healthz", ""},
		{http.MethodGet, "/v1/metrics", ""},
		{http.MethodGet, fmt.Sprintf("/v1/classify?trace=%d", s.Measurements[0].TraceID), ""},
		{http.MethodGet, fmt.Sprintf("/v1/alternates?target=%s", s.Measurements[0].DstAS), ""},
		{http.MethodGet, "/v1/experiments/table2", ""},
		{http.MethodGet, fmt.Sprintf("/v1/as/%s", s.Topo.ASNs()[0]), ""},
		{http.MethodPost, "/v1/whatif", fmt.Sprintf(`{"schema":"routelab-whatif/v1","deltas":[{"kind":"poison","poisoned":[%q]},{"kind":"withdraw"}]}`, s.Testbed.Muxes[0])},
		{http.MethodGet, "/v1/scenarios", ""},
		{http.MethodGet, "/v1/scenarios/" + DefaultID, ""},
		{http.MethodGet, "/v1/build", ""},
		{http.MethodGet, "/v1/nope", ""},
	} {
		body := fetch(q.method, q.path, q.doc)
		e, err := ReadEnvelope(bytes.NewReader(body))
		if err != nil {
			f.Fatalf("%s %s: %v\n%s", q.method, q.path, err, body)
		}
		kinds[e.Kind] = true
		f.Add(body)
	}
	for _, k := range Kinds {
		if !kinds[k] {
			f.Fatalf("no served body of kind %q seeds the corpus", k)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := ReadEnvelope(bytes.NewReader(body))
		want, refErr := referenceReadEnvelope(body)
		if err != nil {
			if refErr == nil && !trailsEnvelope(body) {
				t.Fatalf("rejected (%v) what the reference accepts, with nothing after the envelope\n%q", err, body)
			}
			return
		}
		if refErr != nil {
			t.Fatalf("accepted what the reference rejects (%v)\n%q", refErr, body)
		}
		if got.Schema != want.Schema || got.Kind != want.Kind || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("read %q/%q/%q, the reference %q/%q/%q", got.Schema, got.Kind, got.Data, want.Schema, want.Kind, want.Data)
		}
		if !json.Valid(got.Data) {
			t.Fatalf("accepted data that is not valid JSON: %q", got.Data)
		}
	})
}
