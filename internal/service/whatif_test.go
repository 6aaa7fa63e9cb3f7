package service

import (
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
	"routelab/internal/scenario"
	"routelab/internal/whatif"
)

// postWhatIf posts one routelab-whatif/v1 document and returns status,
// body, and the response-cache header.
func postWhatIf(t *testing.T, url, doc string) (int, string, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get(CacheHeader)
}

// decodeWhatIf unwraps a whatif envelope.
func decodeWhatIf(t *testing.T, body string) WhatIfData {
	t.Helper()
	e := checkEnvelope(t, body)
	if e.Kind != "whatif" {
		t.Fatalf("kind %q, want whatif\n%s", e.Kind, body)
	}
	var data WhatIfData
	if err := json.Unmarshal(e.Data, &data); err != nil {
		t.Fatalf("decode whatif data: %v", err)
	}
	return data
}

func TestWhatIfSingleDelta(t *testing.T) {
	s := testScenario(t)
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/whatif"

	doc := `{"schema":"routelab-whatif/v1","delta":{"kind":"withdraw"}}`
	status, body, hdr := postWhatIf(t, url, doc)
	if status != http.StatusOK {
		t.Fatalf("status %d\n%s", status, body)
	}
	if hdr != "miss" {
		t.Errorf("first request: cache %q, want miss", hdr)
	}
	data := decodeWhatIf(t, body)
	if data.Deltas != 1 || len(data.Results) != 1 {
		t.Fatalf("deltas=%d results=%d, want 1/1", data.Deltas, len(data.Results))
	}
	r := data.Results[0]
	if r.Kind != "withdraw" || r.Delta != "withdraw()" {
		t.Errorf("result kind/delta = %q/%q", r.Kind, r.Delta)
	}
	if !r.Converged || r.Lost == 0 || r.Gained != 0 {
		t.Errorf("withdraw diff shape: %+v", r)
	}
	if data.Origin != s.Testbed.Origin.String() || data.Prefix != s.Testbed.Prefixes[0].String() {
		t.Errorf("origin/prefix = %q/%q", data.Origin, data.Prefix)
	}

	// Byte-identical cache hit on repeat.
	status2, body2, hdr2 := postWhatIf(t, url, doc)
	if status2 != http.StatusOK || hdr2 != "hit" {
		t.Fatalf("repeat: status %d, cache %q, want 200/hit", status2, hdr2)
	}
	if body2 != body {
		t.Error("cached body differs from computed body")
	}
}

// TestWhatIfBatchForksBase pins the fork accounting: bgp.fork.calls is
// an exact function of the tenants built and the requests served.
// Building a tenant of a fresh scenario costs exactly the forks of one
// all-AS alternates walk, a what-if batch of N deltas exactly N forks
// of one shared frozen base, an alternates miss none (it reads what the
// tenant's build discovered), and a cache hit of either none.
func TestWhatIfBatchForksBase(t *testing.T) {
	s := testScenario(t)
	forks := func() int64 { return obs.Snap().Counters["bgp.fork.calls"] }

	before := forks()
	s.Testbed.DiscoverAlternates(s.Testbed.Prefixes[0], s.Topo.ASNs(), 1)
	walk := forks() - before
	if walk == 0 {
		t.Fatal("an all-AS alternates walk took no fork")
	}
	fresh, err := scenario.Build(s.Cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	before = forks()
	newTenant(fresh, Config{}, partition{c: NewStore(StoreConfig{}).cache, tenant: DefaultID})
	if got := forks() - before; got != walk {
		t.Errorf("building a tenant of a fresh scenario took %d forks, want %d (one all-AS alternates walk)", got, walk)
	}
	_, ts := newTestServer(t, Config{})

	mux := s.Testbed.Muxes[0]
	doc := fmt.Sprintf(`{"schema":"routelab-whatif/v1","deltas":[
		{"kind":"withdraw"},
		{"kind":"prepend","prepend":2},
		{"kind":"poison","poisoned":[%q]}
	]}`, mux)

	before = forks()
	status, body, hdr := postWhatIf(t, ts.URL+"/v1/whatif", doc)
	if status != http.StatusOK || hdr != "miss" {
		t.Fatalf("status %d, cache %q\n%s", status, hdr, body)
	}
	if got := forks() - before; got != 3 {
		t.Errorf("batch of 3 took %d forks, want 3 (one per delta off one frozen base)", got)
	}
	data := decodeWhatIf(t, body)
	if data.Deltas != 3 || len(data.Results) != 3 {
		t.Fatalf("deltas=%d results=%d, want 3/3", data.Deltas, len(data.Results))
	}

	// The cached repeat must not fork at all.
	before = forks()
	if _, _, hdr := postWhatIf(t, ts.URL+"/v1/whatif", doc); hdr != "hit" {
		t.Fatalf("repeat: cache %q, want hit", hdr)
	}
	if got := forks() - before; got != 0 {
		t.Errorf("cache hit took %d forks, want 0", got)
	}

	// Alternates: no fork on a miss, however many poisoning rounds the
	// target's discovery ran at build time, and none on a hit.
	alt := fmt.Sprintf("%s/v1/alternates?target=%s", ts.URL, s.Measurements[0].DstAS)
	for _, cache := range []string{"miss", "hit"} {
		before = forks()
		status, body, hdr := getHeader(t, alt)
		if status != http.StatusOK || hdr != cache {
			t.Fatalf("alternates: status %d, cache %q, want %q\n%s", status, hdr, cache, body)
		}
		if got := forks() - before; got != 0 {
			t.Errorf("alternates %s took %d forks, want 0", cache, got)
		}
	}
}

// TestWhatIfCanonicalCacheKey: two wire-different but semantically
// equal requests share one cache entry.
func TestWhatIfCanonicalCacheKey(t *testing.T) {
	s := testScenario(t)
	_, ts := newTestServer(t, Config{})
	m0, m1 := s.Testbed.Muxes[0], s.Testbed.Muxes[1%len(s.Testbed.Muxes)]

	doc1 := fmt.Sprintf(`{"schema":"routelab-whatif/v1","delta":{"kind":"poison","poisoned":[%q,%q]}}`, m1, m0)
	doc2 := fmt.Sprintf(`{"schema":"routelab-whatif/v1","delta":{"kind":"poison","poisoned":[%q,%q,%q]}}`, m0, m1, m0)
	status, body1, hdr := postWhatIf(t, ts.URL+"/v1/whatif", doc1)
	if status != http.StatusOK || hdr != "miss" {
		t.Fatalf("first: status %d, cache %q", status, hdr)
	}
	status, body2, hdr := postWhatIf(t, ts.URL+"/v1/whatif", doc2)
	if status != http.StatusOK {
		t.Fatalf("second: status %d", status)
	}
	if hdr != "hit" {
		t.Errorf("reordered+duplicated poison set: cache %q, want hit (canonical key)", hdr)
	}
	if body1 != body2 {
		t.Error("canonically equal requests returned different bodies")
	}
}

func TestWhatIfErrors(t *testing.T) {
	s := testScenario(t)
	_, ts := newTestServer(t, Config{})
	origin := s.Testbed.Origin

	// A syntactically valid prefix outside the testbed set.
	foreign := "203.0.113.0/24"
	for _, p := range s.Testbed.Prefixes {
		if p.String() == foreign {
			foreign = "198.18.0.0/24"
		}
	}
	big := make([]string, MaxWhatIfDeltas+1)
	for i := range big {
		big[i] = `{"kind":"withdraw"}`
	}

	cases := []struct {
		name     string
		doc      string
		want     int
		wantCode string
	}{
		{"bad schema", `{"schema":"routelab-whatif/v2","delta":{"kind":"withdraw"}}`, http.StatusBadRequest, CodeBadBody},
		{"not json", `nope`, http.StatusBadRequest, CodeBadBody},
		{"no delta", `{"schema":"routelab-whatif/v1"}`, http.StatusBadRequest, CodeBadBody},
		{"both forms", `{"schema":"routelab-whatif/v1","delta":{"kind":"withdraw"},"deltas":[{"kind":"withdraw"}]}`, http.StatusBadRequest, CodeBadBody},
		{"batch cap", `{"schema":"routelab-whatif/v1","deltas":[` + strings.Join(big, ",") + `]}`, http.StatusBadRequest, CodeBadBody},
		{"unknown kind", `{"schema":"routelab-whatif/v1","delta":{"kind":"teleport"}}`, http.StatusBadRequest, CodeBadBody},
		{"bad delta", fmt.Sprintf(`{"schema":"routelab-whatif/v1","delta":{"kind":"poison","poisoned":[%q]}}`, origin), http.StatusBadRequest, CodeBadParam},
		{"bad prefix", `{"schema":"routelab-whatif/v1","prefix":"zzz","delta":{"kind":"withdraw"}}`, http.StatusBadRequest, CodeBadParam},
		{"foreign prefix", fmt.Sprintf(`{"schema":"routelab-whatif/v1","prefix":%q,"delta":{"kind":"withdraw"}}`, foreign), http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		status, body, _ := postWhatIf(t, ts.URL+"/v1/whatif", tc.doc)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d\n%s", tc.name, status, tc.want, body)
			continue
		}
		e := checkEnvelope(t, body)
		if e.Kind != "error" {
			t.Errorf("%s: kind %q, want error", tc.name, e.Kind)
			continue
		}
		var ed ErrorData
		if err := json.Unmarshal(e.Data, &ed); err != nil {
			t.Errorf("%s: decode error data: %v", tc.name, err)
			continue
		}
		if ed.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q (error: %s)", tc.name, ed.Code, tc.wantCode, ed.Error)
		}
	}

	// GET on the POST-only route is a 404 from the fallback mux.
	if status, _ := get(t, ts.URL+"/v1/whatif"); status != http.StatusNotFound {
		t.Errorf("GET /v1/whatif: status %d, want 404", status)
	}
}

// TestWhatIfFleet drives the same endpoint through the fleet route
// table: /v1/scenarios/{id}/whatif resolves the tenant and answers
// identically to the tenant's own handler.
func TestWhatIfFleet(t *testing.T) {
	st, ts := newTestFleet(t, StoreConfig{}, testExpansion("alpha", 1))
	doc := `{"schema":"routelab-whatif/v1","delta":{"kind":"withdraw"}}`
	status, body, hdr := postWhatIf(t, ts.URL+"/v1/scenarios/alpha/whatif", doc)
	if status != http.StatusOK {
		t.Fatalf("status %d\n%s", status, body)
	}
	if hdr != "miss" {
		t.Errorf("cache %q, want miss", hdr)
	}
	data := decodeWhatIf(t, body)
	if data.Deltas != 1 || len(data.Results) != 1 || data.Results[0].Kind != "withdraw" {
		t.Fatalf("fleet whatif payload: %+v", data)
	}
	if _, _, hdr := postWhatIf(t, ts.URL+"/v1/scenarios/alpha/whatif", doc); hdr != "hit" {
		t.Errorf("repeat: cache %q, want hit", hdr)
	}
	if status, _, _ := postWhatIf(t, ts.URL+"/v1/scenarios/nope/whatif", doc); status != http.StatusNotFound {
		t.Errorf("unknown scenario: status %d, want 404", status)
	}
	// The fleet answer equals the tenant's own handler answer: same
	// world, same canonical key, byte-identical body.
	srv, err := st.Get(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.serveWhatIf(&reply{w: rec}, httptest.NewRequest(http.MethodPost, "/v1/whatif", strings.NewReader(doc)))
	if rec.Body.String() != body {
		t.Error("fleet whatif body differs from the tenant's direct answer")
	}
}

// TestCacheHeaderOnCacheableEndpoints sweeps every cacheable endpoint
// on the alias and the prefixed routes: the first request must answer "miss", the repeat
// "hit", and non-cacheable endpoints must not emit the header at all.
func TestCacheHeaderOnCacheableEndpoints(t *testing.T) {
	s := testScenario(t)
	_, ts := newTestServer(t, Config{})
	cacheable := []string{
		ts.URL + fmt.Sprintf("/v1/classify?trace=%d", s.Measurements[0].TraceID),
		ts.URL + fmt.Sprintf("/v1/alternates?target=%s", s.Measurements[0].DstAS),
		ts.URL + "/v1/experiments/table1",
		ts.URL + fmt.Sprintf("/v1/as/%s", s.Topo.ASNs()[0]),
	}
	for _, u := range cacheable {
		if status, body, hdr := getHeader(t, u); status != http.StatusOK || hdr != "miss" {
			t.Errorf("%s: status %d, cache %q, want 200/miss\n%s", u, status, hdr, body)
		}
		if _, _, hdr := getHeader(t, u); hdr != "hit" {
			t.Errorf("%s repeat: cache %q, want hit", u, hdr)
		}
	}
	doc := `{"schema":"routelab-whatif/v1","delta":{"kind":"prepend","prepend":1}}`
	if status, _, hdr := postWhatIf(t, ts.URL+"/v1/whatif", doc); status != http.StatusOK || hdr != "miss" {
		t.Errorf("whatif: status %d, cache %q, want 200/miss", status, hdr)
	}
	if _, _, hdr := postWhatIf(t, ts.URL+"/v1/whatif", doc); hdr != "hit" {
		t.Errorf("whatif repeat: cache %q, want hit", hdr)
	}
	// Non-cacheable endpoints carry no cache header.
	for _, u := range []string{ts.URL + "/v1/healthz", ts.URL + "/v1/metrics"} {
		if _, _, hdr := getHeader(t, u); hdr != "" {
			t.Errorf("%s: unexpected cache header %q", u, hdr)
		}
	}

	// The same families under a named tenant's /v1/scenarios/{id} root.
	st, fts := newTestFleet(t, StoreConfig{}, testExpansion("gamma", 3))
	urls, err := tenantURLs(st, fts.URL, "gamma")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range urls[1:] { // skip healthz (not cacheable)
		if status, body, hdr := getHeader(t, u); status != http.StatusOK || hdr != "miss" {
			t.Errorf("%s: status %d, cache %q, want 200/miss\n%s", u, status, hdr, body)
		}
		if _, _, hdr := getHeader(t, u); hdr != "hit" {
			t.Errorf("%s repeat: cache %q, want hit", u, hdr)
		}
	}
}

// TestWhatIfKindsListed pins the wire contract: the whatif kind is part
// of the envelope vocabulary and every delta kind the engine supports
// is reachable over the API.
func TestWhatIfKindsListed(t *testing.T) {
	if !slices.Contains(Kinds, "whatif") {
		t.Error(`Kinds must include "whatif"`)
	}
	s := testScenario(t)
	_, ts := newTestServer(t, Config{})
	origin, mux := s.Testbed.Origin, s.Testbed.Muxes[0]
	docs := map[whatif.Kind]string{
		whatif.LinkFailure: fmt.Sprintf(`{"kind":"link_failure","a":%q,"b":%q}`, origin, mux),
		whatif.Poison:      fmt.Sprintf(`{"kind":"poison","poisoned":[%q]}`, mux),
		whatif.Prepend:     `{"kind":"prepend","prepend":3}`,
		whatif.LocalPref:   fmt.Sprintf(`{"kind":"local_pref","at":%q,"from":%q,"pref":40}`, mux, origin),
		whatif.Withdraw:    `{"kind":"withdraw"}`,
	}
	for kind, delta := range docs {
		doc := fmt.Sprintf(`{"schema":"routelab-whatif/v1","delta":%s}`, delta)
		status, body, _ := postWhatIf(t, ts.URL+"/v1/whatif", doc)
		if status != http.StatusOK {
			t.Errorf("%s: status %d\n%s", kind, status, body)
			continue
		}
		if data := decodeWhatIf(t, body); data.Results[0].Kind != string(kind) {
			t.Errorf("%s: result kind %q", kind, data.Results[0].Kind)
		}
	}
}
