package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
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

// builtLen reports how many sealed scenarios are resident.
func builtLen(st *Store) int {
	n, _ := st.tenants.size()
	return n
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
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/scenarios", "", strings.NewReader(body))
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
	status, body := post(yamlSpec)
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
	if status, _ = post(yamlSpec); status != http.StatusConflict {
		t.Errorf("duplicate admission: status %d, want 409", status)
	}
	// A JSON document is told by its first byte.
	jsonSpec := `{"spec": "routelab-spec/v1", "name": "admitted-json", "profile": "tiny"}`
	if status, body = post(jsonSpec); status != http.StatusCreated {
		t.Errorf("JSON admission: status %d\n%s", status, body)
	}
	// Rejections: malformed document, bad profile, a field outside the
	// schema, a field outside its bound (named by its document path).
	for _, tc := range []struct{ body, want string }{
		{"spec: routelab-spec/v1\nname: [broken\n", ""},
		{"spec: routelab-spec/v1\nname: x\nprofile: bogus\n", "profile"},
		{"spec: routelab-spec/v1\nname: x\nprofile: tiny\nbase: other.yaml\n", "base"},
		{"spec: routelab-spec/v1\nname: x\nprofile: tiny\ncampaign:\n  probes: 0\n", "campaign.probes"},
	} {
		status, body := post(tc.body)
		if status != http.StatusBadRequest || !strings.Contains(body, tc.want) {
			t.Errorf("bad admission %q: status %d, want 400 naming %q\n%s", tc.body, status, tc.want, body)
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
	if builtLen(st) != 1 {
		t.Errorf("builtLen = %d, want 1", builtLen(st))
	}
}

// TestConcurrentStoresKeepTheirOwnRecords builds on two stores in one
// process at once: a, whose budget holds one world, builds alpha, then
// beta (evicting alpha), then serves beta again (a hit); b builds gamma.
// Each store's record counts only its own builds, hits and evictions,
// and its gauges show only its own residency; the process registry
// holds the sums. A store that has finished no build prices a shed
// build's Retry-After at the 5 s default, whatever the others built.
func TestConcurrentStoresKeepTheirOwnRecords(t *testing.T) {
	obs.Reset()
	a, b := NewStore(StoreConfig{MaxScenarioBytes: 1}), NewStore(StoreConfig{})
	stores := []struct {
		st                      *Store
		ids                     []string
		builds, hits, evictions int64
	}{
		{a, []string{"alpha", "beta", "beta"}, 2, 1, 1},
		{b, []string{"gamma"}, 1, 0, 0},
	}
	var wg sync.WaitGroup
	for i, s := range stores {
		for j, id := range s.ids[:s.builds] {
			if err := s.st.Register(testExpansion(id, int64(10*i+j+1)), "test"); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range s.ids {
				if _, err := s.st.Get(context.Background(), id); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	sums := map[string]int64{}
	for i, s := range stores {
		snap := s.st.Record().Snapshot()
		for name, want := range map[string]int64{
			"service.scenario.builds":    s.builds,
			"scenario.builds":            s.builds, // counted on each build's own record
			"service.scenario.hits":      s.hits,
			"service.scenario.evictions": s.evictions,
		} {
			if got := snap.Counters[name]; got != want {
				t.Errorf("store %d: %s = %d, want %d", i, name, got, want)
			}
			sums[name] += want
		}
		if got := snap.Gauges["service.scenario.built"]; got != 1 {
			t.Errorf("store %d: service.scenario.built = %v, want 1", i, got)
		}
		if got, want := snap.Gauges["service.scenario.resident_bytes"], float64(s.st.ResidentBytes()); got != want {
			t.Errorf("store %d: service.scenario.resident_bytes = %v, want its own %v", i, got, want)
		}
		for _, stage := range snap.Stages {
			if stage.Name == "service/scenario-build" && stage.Count != s.builds {
				t.Errorf("store %d: %d service/scenario-build stages, want %d", i, stage.Count, s.builds)
			}
		}
	}
	process := obs.Snap().Counters
	for name, sum := range sums {
		if process[name] != sum {
			t.Errorf("process %s = %d, want the stores' sum %d", name, process[name], sum)
		}
	}
	if got := NewStore(StoreConfig{}).buildRetryAfter(0); got != 5 {
		t.Errorf("a store with no finished build prices Retry-After at %d s, want 5", got)
	}

	// Then traffic: each store behind its own fleet gets its own mix at
	// the same time. Its requests, their stages, the experiments they
	// run and the alternates walks of its builds (newTenant discovers
	// every AS once per build) count on its record only.
	type mix struct {
		healthz, alternates int
		experiments         []string // query strings; a repeat is a cache hit
	}
	mixes := []mix{{3, 2, []string{"", "", "?seed=5"}}, {1, 1, []string{""}}}
	want := make([]map[string]int64, len(stores))
	for i, s := range stores {
		id := s.ids[len(s.ids)-1]
		srv, err := s.st.Get(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewFleet(s.st).Handler())
		t.Cleanup(ts.Close)
		m := mixes[i]
		var urls []string
		for range m.healthz {
			urls = append(urls, "/healthz")
		}
		for _, a := range srv.s.Topo.ASNs()[:m.alternates] {
			urls = append(urls, "/alternates?target="+a.String())
		}
		runs := map[string]bool{}
		for _, q := range m.experiments {
			urls = append(urls, "/experiments/prediction"+q)
			runs[q] = true
		}
		want[i] = map[string]int64{
			"service.requests.healthz":     int64(m.healthz),
			"service.requests.alternates":  int64(m.alternates),
			"service.requests.experiments": int64(len(m.experiments)),
			"service.cache.hits":           int64(len(m.experiments) - len(runs)),
			"experiments.runs":             int64(len(runs)),
			"stage service/healthz":        int64(m.healthz),
			"stage service/alternates":     int64(m.alternates),
			"stage service/experiments":    int64(len(m.experiments)),
			"stage experiment/prediction":  int64(len(runs)),
			"stage scenario/alternates":    s.builds,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, u := range urls {
				if status, body, err := getErr(ts.URL + "/v1/scenarios/" + id + u); err != nil || status != http.StatusOK {
					t.Errorf("store %d: GET %s: status %d, %v\n%s", i, u, status, err, body)
				}
			}
		}()
	}
	wg.Wait()

	// recorded reads a snapshot's counters and stage counts by the keys
	// of want.
	recorded := func(snap obs.Snapshot) map[string]int64 {
		got := maps.Clone(snap.Counters)
		for _, st := range snap.Stages {
			got["stage "+st.Name] = st.Count
		}
		return got
	}
	totals := map[string]int64{}
	for i, s := range stores {
		got := recorded(s.st.Record().Snapshot())
		for name, n := range want[i] {
			if got[name] != n {
				t.Errorf("store %d: %s = %d, want %d", i, name, got[name], n)
			}
			totals[name] += n
		}
	}
	summed := recorded(obs.Snap())
	for name, total := range totals {
		if summed[name] != total {
			t.Errorf("process %s = %d, want the stores' sum %d", name, summed[name], total)
		}
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
	if builtLen(st) != 1 {
		t.Errorf("builtLen = %d, want 1 after eviction", builtLen(st))
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
	if n := builtLen(st); n != 1 {
		t.Errorf("builtLen = %d, want 1", n)
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
