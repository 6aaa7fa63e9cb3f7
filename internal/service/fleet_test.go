package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"routelab/internal/obs"
	"routelab/internal/scenario"
	"routelab/internal/spec"
)

// testExpansion fabricates a registered-spec expansion around the fast
// test config, varying only the seed so distinct ids are distinct
// worlds (their response bodies differ).
func testExpansion(name string, seed int64) *spec.Expansion {
	cfg := scenario.TestConfig()
	cfg.Seed = seed
	return &spec.Expansion{
		SpecVersion: spec.Version,
		Name:        name,
		Description: "fleet test world",
		Profile:     "test",
		Config:      cfg,
	}
}

// newTestFleet registers the given expansions in a fresh store and
// serves the fleet handler.
func newTestFleet(t *testing.T, cfg StoreConfig, exps ...*spec.Expansion) (*Store, *httptest.Server) {
	t.Helper()
	st := NewStore(cfg)
	for _, exp := range exps {
		if err := st.Register(exp, "test"); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewFleet(st).Handler())
	t.Cleanup(ts.Close)
	return st, ts
}

// getHeader is get plus the response-cache header.
func getHeader(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
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

// tenantURLs builds one URL per per-scenario endpoint family, using the
// built tenant's scenario for live trace/AS parameters.
func tenantURLs(st *Store, base, id string) ([]string, error) {
	srv, err := st.Get(context.Background(), id)
	if err != nil {
		return nil, err
	}
	s := srv.s
	prefix := base + "/v1/scenarios/" + id
	return []string{
		prefix + "/healthz",
		prefix + fmt.Sprintf("/classify?trace=%d", s.Measurements[0].TraceID),
		prefix + fmt.Sprintf("/alternates?target=%s", s.Measurements[0].DstAS),
		prefix + "/experiments/table1",
		prefix + fmt.Sprintf("/as/%s", s.Topo.ASNs()[0]),
	}, nil
}

func TestFleetEndpoints(t *testing.T) {
	st, ts := newTestFleet(t, StoreConfig{},
		testExpansion("alpha", 1), testExpansion("beta", 2))

	// Before any build: listing shows both scenarios, none built.
	status, body := get(t, ts.URL+"/v1/scenarios")
	if status != http.StatusOK {
		t.Fatalf("scenarios: status %d\n%s", status, body)
	}
	env := checkEnvelope(t, body)
	if env.Kind != "scenarios" {
		t.Fatalf("kind %q, want scenarios", env.Kind)
	}
	if !strings.Contains(body, `"alpha"`) || !strings.Contains(body, `"beta"`) {
		t.Errorf("listing missing ids:\n%s", body)
	}
	if !strings.Contains(body, `"count":2`) || !strings.Contains(body, `"built":0`) {
		t.Errorf("listing counts wrong:\n%s", body)
	}

	status, body = get(t, ts.URL+"/v1/scenarios/alpha")
	if status != http.StatusOK {
		t.Fatalf("scenario info: status %d\n%s", status, body)
	}
	if env := checkEnvelope(t, body); env.Kind != "scenario" {
		t.Errorf("kind %q, want scenario", env.Kind)
	}

	// Drive every endpoint family on both tenants.
	wantKinds := []string{"health", "classify", "alternates", "experiment", "as"}
	for _, id := range []string{"alpha", "beta"} {
		urls, err := tenantURLs(st, ts.URL, id)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range urls {
			status, body := get(t, u)
			if status != http.StatusOK {
				t.Errorf("%s: status %d\n%s", u, status, body)
				continue
			}
			if env := checkEnvelope(t, body); env.Kind != wantKinds[i] {
				t.Errorf("%s: kind %q, want %q", u, env.Kind, wantKinds[i])
			}
		}
	}

	// After traffic: both built, fleet healthz agrees, metrics exist.
	status, body = get(t, ts.URL+"/v1/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	if !strings.Contains(body, `"scenarios":2`) || !strings.Contains(body, `"built":2`) {
		t.Errorf("fleet healthz counts wrong:\n%s", body)
	}
	status, body = get(t, ts.URL+"/v1/metrics")
	if status != http.StatusOK || !strings.Contains(body, "service.scenario.builds") {
		t.Errorf("metrics: status %d, missing scenario counters", status)
	}
}

func TestFleetUnknownScenario(t *testing.T) {
	_, ts := newTestFleet(t, StoreConfig{}, testExpansion("alpha", 1))
	for _, path := range []string{
		"/v1/scenarios/nope",
		"/v1/scenarios/nope/healthz",
		"/v1/scenarios/nope/classify?trace=0",
		"/v1/scenarios/nope/experiments/table1",
		"/v1/scenarios/nope/as/1",
		// The un-prefixed alias on a store with no DefaultID scenario.
		"/v1/classify?trace=0",
		"/v1/build",
	} {
		status, body := get(t, ts.URL+path)
		if status != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, status)
			continue
		}
		env := checkEnvelope(t, body)
		if env.Kind != "error" {
			t.Errorf("%s: kind %q, want error", path, env.Kind)
		}
		var ed ErrorData
		if err := json.Unmarshal(env.Data, &ed); err != nil || ed.Code != CodeNotFound {
			t.Errorf("%s: error code %q (%v), want %q", path, ed.Code, err, CodeNotFound)
		}
	}
}

func TestFleetAdmission(t *testing.T) {
	_, ts := newTestFleet(t, StoreConfig{}, testExpansion("alpha", 1))
	post := func(body, contentType, query string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/scenarios"+query, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	yamlSpec := "spec: routelab-spec/v1\nname: admitted\nprofile: tiny\n"
	status, body := post(yamlSpec, "application/yaml", "")
	if status != http.StatusCreated {
		t.Fatalf("admission: status %d\n%s", status, body)
	}
	if env := checkEnvelope(t, body); env.Kind != "scenario" {
		t.Errorf("admission kind %q, want scenario", env.Kind)
	}
	if status, body = get(t, ts.URL+"/v1/scenarios/admitted/healthz"); status != http.StatusOK {
		t.Fatalf("admitted scenario healthz: status %d\n%s", status, body)
	}

	// Duplicate id conflicts; different worlds under one id would make
	// responses depend on admission order.
	if status, _ = post(yamlSpec, "application/yaml", ""); status != http.StatusConflict {
		t.Errorf("duplicate admission: status %d, want 409", status)
	}
	// JSON document via Content-Type and via sniffing.
	jsonSpec := `{"spec": "routelab-spec/v1", "name": "admitted-json", "profile": "tiny"}`
	if status, body = post(jsonSpec, "application/json", ""); status != http.StatusCreated {
		t.Errorf("JSON admission: status %d\n%s", status, body)
	}
	jsonSpec2 := `{"spec": "routelab-spec/v1", "name": "admitted-sniffed", "profile": "tiny"}`
	if status, body = post(jsonSpec2, "", ""); status != http.StatusCreated {
		t.Errorf("sniffed JSON admission: status %d\n%s", status, body)
	}
	// Rejections: malformed document, bad profile, explicit bad format,
	// base chains (need file resolution).
	for _, tc := range []struct{ body, ct, query string }{
		{"spec: routelab-spec/v1\nname: [broken\n", "", ""},
		{"spec: routelab-spec/v1\nname: x\nprofile: bogus\n", "", ""},
		{yamlSpec, "", "?format=toml"},
		{"spec: routelab-spec/v1\nname: x\nprofile: tiny\nbase: other.yaml\n", "", ""},
	} {
		status, body := post(tc.body, tc.ct, tc.query)
		if status != http.StatusBadRequest {
			t.Errorf("bad admission %q: status %d, want 400\n%s", tc.body, status, body)
		}
	}
}

// TestStoreSingleflightBuilds proves build coalescing: many concurrent
// requests for the same cold scenario trigger exactly one build.
func TestStoreSingleflightBuilds(t *testing.T) {
	obs.Reset()
	st, ts := newTestFleet(t, StoreConfig{}, testExpansion("alpha", 1))
	const clients = 12
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, _ := getHeader(t, ts.URL+"/v1/scenarios/alpha/experiments/table1")
			if status != http.StatusOK {
				t.Errorf("status %d", status)
			}
		}()
	}
	wg.Wait()
	if n := obs.Snap().Counters["service.scenario.builds"]; n != 1 {
		t.Errorf("service.scenario.builds = %d, want 1 (singleflight)", n)
	}
	if st.BuiltLen() != 1 {
		t.Errorf("BuiltLen = %d, want 1", st.BuiltLen())
	}
}

// TestStoreLRUEviction drives a store whose budget holds one world (a
// 1-byte budget under the sole-resident rule) across two ids and
// checks evictions, rebuilds, and that a rebuilt scenario's responses
// are byte-identical — including a genuine recompute (cache partition
// purged on eviction, so the rebuilt world's first answer is a miss).
func TestStoreLRUEviction(t *testing.T) {
	obs.Reset()
	st, ts := newTestFleet(t, StoreConfig{MaxScenarioBytes: 1},
		testExpansion("alpha", 1), testExpansion("beta", 2))
	urlA := ts.URL + "/v1/scenarios/alpha/experiments/table1"
	urlB := ts.URL + "/v1/scenarios/beta/experiments/table1"

	status, bodyA, hdr := getHeader(t, urlA)
	if status != http.StatusOK || hdr != "miss" {
		t.Fatalf("first alpha: status %d, cache %q", status, hdr)
	}
	if _, _, hdr = getHeader(t, urlA); hdr != "hit" {
		t.Errorf("second alpha: cache %q, want hit", hdr)
	}

	// Touching beta builds it and evicts alpha (only one fits).
	if status, _, _ = getHeader(t, urlB); status != http.StatusOK {
		t.Fatalf("beta: status %d", status)
	}
	if st.BuiltLen() != 1 {
		t.Errorf("BuiltLen = %d, want 1 after eviction", st.BuiltLen())
	}
	snap := obs.Snap()
	if n := snap.Counters["service.scenario.evictions"]; n != 1 {
		t.Errorf("evictions = %d, want 1", n)
	}

	// Alpha rebuilds on demand; the response must be byte-identical to
	// the pre-eviction one, and "miss" proves it was recomputed from the
	// rebuilt world, not served from a stale cache entry.
	status, rebuilt, hdr := getHeader(t, urlA)
	if status != http.StatusOK {
		t.Fatalf("rebuilt alpha: status %d", status)
	}
	if hdr != "miss" {
		t.Errorf("rebuilt alpha: cache %q, want miss (partition purged on eviction)", hdr)
	}
	if rebuilt != bodyA {
		t.Error("rebuilt alpha response differs from pre-eviction response")
	}
	if n := obs.Snap().Counters["service.scenario.builds"]; n != 3 {
		t.Errorf("builds = %d, want 3 (alpha, beta, alpha again)", n)
	}
}

// TestStoreLRUEvictionConcurrent churns a one-world store from many
// goroutines under -race: builds coalesce per id, eviction bookkeeping
// stays consistent, and every response is valid.
func TestStoreLRUEvictionConcurrent(t *testing.T) {
	obs.Reset()
	st, ts := newTestFleet(t, StoreConfig{MaxScenarioBytes: 1},
		testExpansion("alpha", 1), testExpansion("beta", 2))
	const rounds = 6
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		for _, id := range []string{"alpha", "beta"} {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				status, body, _ := getHeader(t, ts.URL+"/v1/scenarios/"+id+"/healthz")
				if status != http.StatusOK {
					t.Errorf("%s: status %d\n%s", id, status, body)
				}
			}(id)
		}
	}
	wg.Wait()
	if n := st.BuiltLen(); n != 1 {
		t.Errorf("BuiltLen = %d, want 1", n)
	}
	snap := obs.Snap()
	builds := snap.Counters["service.scenario.builds"]
	evictions := snap.Counters["service.scenario.evictions"]
	if builds < 2 || builds > 2*rounds {
		t.Errorf("builds = %d, want within [2, %d]", builds, 2*rounds)
	}
	if evictions != builds-1 {
		t.Errorf("evictions = %d, want builds-1 = %d", evictions, builds-1)
	}
}

// TestNoCrossScenarioCacheServe is the regression test for the PR 3
// cache-key shape: keys there were endpoint+params only, which in a
// fleet would let two scenarios serve each other's cached bodies for
// the same URL suffix. With id-namespaced keys, the second scenario's
// identical-params request must be a cache miss with its own body.
func TestNoCrossScenarioCacheServe(t *testing.T) {
	_, ts := newTestFleet(t, StoreConfig{},
		testExpansion("alpha", 1), testExpansion("beta", 2))

	statusA, bodyA, hdrA := getHeader(t, ts.URL+"/v1/scenarios/alpha/experiments/table1")
	if statusA != http.StatusOK || hdrA != "miss" {
		t.Fatalf("alpha: status %d, cache %q", statusA, hdrA)
	}
	if _, _, hdr := getHeader(t, ts.URL+"/v1/scenarios/alpha/experiments/table1"); hdr != "hit" {
		t.Fatalf("alpha repeat: cache %q, want hit", hdr)
	}
	// Same endpoint + params, different scenario: must compute fresh.
	statusB, bodyB, hdrB := getHeader(t, ts.URL+"/v1/scenarios/beta/experiments/table1")
	if statusB != http.StatusOK {
		t.Fatalf("beta: status %d", statusB)
	}
	if hdrB != "miss" {
		t.Errorf("beta after alpha hit: cache %q, want miss (cross-scenario serve)", hdrB)
	}
	if bodyA == bodyB {
		t.Error("alpha and beta (different seeds) returned identical bodies")
	}
}

// TestFleetConcurrentScenariosMatchSerial is the fleet determinism
// contract from the issue: >= 2 scenarios served side by side, with a
// mixed concurrent client load, must answer byte-identically to a
// serial baseline per scenario.
func TestFleetConcurrentScenariosMatchSerial(t *testing.T) {
	st, ts := newTestFleet(t, StoreConfig{Tenant: Config{MaxConcurrent: 2}},
		testExpansion("alpha", 1), testExpansion("beta", 2))
	var urls []string
	for _, id := range []string{"alpha", "beta"} {
		us, err := tenantURLs(st, ts.URL, id)
		if err != nil {
			t.Fatal(err)
		}
		urls = append(urls, us...)
	}
	baseline := make(map[string]string, len(urls))
	for _, u := range urls {
		status, body := get(t, u)
		if status != http.StatusOK {
			t.Fatalf("baseline %s: status %d", u, status)
		}
		baseline[u] = body
	}

	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		u := urls[i%len(urls)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(u)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d", u, resp.StatusCode)
				return
			}
			if !bytes.Equal(body, []byte(baseline[u])) {
				errs <- fmt.Errorf("%s: concurrent response differs from serial baseline", u)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestStoreRegisterValidation(t *testing.T) {
	st := NewStore(StoreConfig{})
	if err := st.Register(&spec.Expansion{Name: ""}, "test"); err == nil {
		t.Error("nameless expansion registered")
	}
	if err := st.Register(testExpansion("dup", 1), "test"); err != nil {
		t.Fatal(err)
	}
	if err := st.Register(testExpansion("dup", 2), "test"); err == nil {
		t.Error("duplicate id registered")
	}
	if _, err := st.Get(context.Background(), "missing"); err == nil {
		t.Error("Get of unregistered id succeeded")
	}
	if _, err := st.RegisterDir(t.TempDir()); err == nil {
		t.Error("RegisterDir of empty dir succeeded")
	}
}

// TestDefaultAliasSharesOnePath is the fleet-of-one contract: every row
// of scenarioRoutes answers at /v1{path} exactly as it does at
// /v1/scenarios/default{path} — identical bytes, and for the cacheable
// rows the second fetch is a hit, so the alias shares the prefixed
// route's cache key rather than minting its own. The table ranges over
// scenarioRoutes itself; a new row without a sample request fails here.
func TestDefaultAliasSharesOnePath(t *testing.T) {
	s := testScenario(t)
	_, ts := newTestServer(t, Config{})
	samples := map[string]struct{ path, body string }{
		"/healthz":            {path: "/healthz"},
		"/classify":           {path: fmt.Sprintf("/classify?trace=%d", s.Measurements[0].TraceID)},
		"/alternates":         {path: fmt.Sprintf("/alternates?target=%s", s.Measurements[0].DstAS)},
		"/experiments/{name}": {path: "/experiments/table1"},
		"/as/{asn}":           {path: fmt.Sprintf("/as/%s", s.Topo.ASNs()[0])},
		"/whatif":             {path: "/whatif", body: `{"schema":"routelab-whatif/v1","delta":{"kind":"prepend","prepend":1}}`},
	}
	fetch := func(method, url, body string) (int, string, string) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b), resp.Header.Get(CacheHeader)
	}
	for _, rt := range scenarioRoutes {
		sample, ok := samples[rt.path]
		if !ok {
			t.Errorf("scenarioRoutes row %s %s has no sample request in this test", rt.method, rt.path)
			continue
		}
		status, alias, hdr1 := fetch(rt.method, ts.URL+"/v1"+sample.path, sample.body)
		if status != http.StatusOK {
			t.Errorf("%s /v1%s: status %d\n%s", rt.method, sample.path, status, alias)
			continue
		}
		status, prefixed, hdr2 := fetch(rt.method, ts.URL+"/v1/scenarios/"+DefaultID+sample.path, sample.body)
		if status != http.StatusOK || prefixed != alias {
			t.Errorf("%s: /v1/scenarios/default answers %d with different bytes than the alias", sample.path, status)
		}
		if hdr1 == "" && hdr2 == "" {
			continue // not cacheable (healthz)
		}
		if hdr1 != "miss" || hdr2 != "hit" {
			t.Errorf("%s: cache %q then %q, want miss then hit (one key for both routes)", sample.path, hdr1, hdr2)
		}
	}
	_, alias, _ := fetch(http.MethodGet, ts.URL+"/v1/build", "")
	if _, prefixed, _ := fetch(http.MethodGet, ts.URL+"/v1/scenarios/"+DefaultID+"/build", ""); prefixed != alias {
		t.Errorf("/v1/build and /v1/scenarios/default/build differ:\n%s\n%s", alias, prefixed)
	}
}
