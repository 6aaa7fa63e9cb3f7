package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
	for _, body := range servedBodies(f) {
		f.Add(body)
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

// servedBodies fetches one served body of every envelope kind from the
// shared test world, each of which ReadEnvelope must accept.
func servedBodies(tb testing.TB) [][]byte {
	tb.Helper()
	s := testScenario(tb)
	_, ts := newTestServer(tb, Config{})
	fetch := func(method, path, doc string) []byte {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(doc))
		if err != nil {
			tb.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			tb.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			tb.Fatal(err)
		}
		return body
	}
	var bodies [][]byte
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
			tb.Fatalf("%s %s: %v\n%s", q.method, q.path, err, body)
		}
		kinds[e.Kind] = true
		bodies = append(bodies, body)
	}
	for _, k := range Kinds {
		if !kinds[k] {
			tb.Fatalf("no served body of kind %q", k)
		}
	}
	return bodies
}

// TestReadEnvelopeCanonicalPass: every served body is read by the
// one-pass reader (readCanonical), not the encoding/json fallback, so a
// change to appendEnvelopeHead cannot send every client down the slow
// path unnoticed. Around the edges of that layout ReadEnvelope agrees
// with the decode-then-Validate reference through whichever path reads
// the body.
func TestReadEnvelopeCanonicalPass(t *testing.T) {
	type tc struct {
		name          string
		body          []byte
		canonical, ok bool
	}
	var cases []tc
	for i, body := range servedBodies(t) {
		cases = append(cases, tc{fmt.Sprintf("served body %d", i), body, true, true})
	}
	as, err := marshalEnvelope("as", ASData{ASN: "AS1", InferredDegree: 1, InferredNeighbors: map[string]int{"AS2": 1}})
	if err != nil {
		t.Fatal(err)
	}
	head := envelopeHead + "error" + envelopeKindTail
	nested := func(depth int) string { return strings.Repeat("[", depth) + strings.Repeat("]", depth) }
	cases = append(cases,
		// The envelope is one level of the nesting limit.
		tc{"nested 10,000 deep", []byte(head + nested(maxNesting-1) + "}\n"), true, true},
		tc{"nested 10,001 deep", []byte(head + nested(maxNesting) + "}\n"), false, false},
		tc{"kind outside Kinds", []byte(`{"schema":"routelab-api/v1","kind":"nope","data":{}}`), false, false},
		tc{"escaped kind", []byte(`{"schema":"routelab-api/v1","kind":"\u0061s","data":{}}`), false, true},
		tc{"swapped key order", []byte(`{"kind":"as","schema":"routelab-api/v1","data":{}}`), false, true},
		tc{"inner whitespace", []byte("{ \"schema\": \"routelab-api/v1\", \"kind\": \"as\", \"data\": {} }\n"), false, true},
		tc{"whitespace around data", []byte(head + " \"x\"\n}"), true, true},
		tc{"truncated data", as[:len(as)/2], false, false},
		tc{"junk after }", append(slices.Clip(as), "junk"...), false, false},
	)
	for _, c := range cases {
		if _, canonical := readCanonical(c.body); canonical != c.canonical {
			t.Errorf("%s: read in one pass %v, want %v\n%.200q", c.name, canonical, c.canonical, c.body)
		}
		got, err := ReadEnvelope(bytes.NewReader(c.body))
		if (err == nil) != c.ok {
			t.Errorf("%s: error %v, want accepted %v", c.name, err, c.ok)
			continue
		}
		want, refErr := referenceReadEnvelope(c.body)
		switch {
		case err != nil:
			if refErr == nil && !trailsEnvelope(c.body) {
				t.Errorf("%s: rejected (%v) what the reference accepts", c.name, err)
			}
		case refErr != nil:
			t.Errorf("%s: accepted what the reference rejects (%v)", c.name, refErr)
		case got.Schema != want.Schema || got.Kind != want.Kind || !bytes.Equal(got.Data, want.Data):
			t.Errorf("%s: read %q/%q/%.200q, the reference %q/%q/%.200q", c.name, got.Schema, got.Kind, got.Data, want.Schema, want.Kind, want.Data)
		}
	}
}

// BenchmarkReadEnvelope reads a served as body and the heavy what-if
// batch's body (heavyWhatIf, 119 KB) as a client does.
func BenchmarkReadEnvelope(b *testing.B) {
	srv, ts := newTestServer(b, Config{})
	rec := httptest.NewRecorder()
	ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/as/"+srv.s.Topo.ASNs()[0].String(), nil))
	whatifBody, err := srv.whatifBody(context.Background(), srv.s.Testbed.Prefixes[0], heavyWhatIf(b, srv.s))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{{"as", rec.Body.Bytes()}, {"whatif", whatifBody}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.body)))
			for i := 0; i < b.N; i++ {
				if _, err := ReadEnvelope(bytes.NewReader(c.body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
