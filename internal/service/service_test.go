package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"routelab/internal/obs"
	"routelab/internal/scenario"
	"routelab/internal/spec"
)

var (
	sharedOnce sync.Once
	shared     *scenario.Scenario
	sharedErr  error
)

func testScenario(t testing.TB) *scenario.Scenario {
	t.Helper()
	sharedOnce.Do(func() {
		shared, sharedErr = scenario.Build(scenario.TestConfig(), nil)
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return shared
}

// newFleetOfOne serves the shared pre-built test scenario the way
// routelabd serves its one world: registered in a fresh store under
// DefaultID and already resident, behind the fleet handler. The tenant
// is inserted directly rather than built through Get, so every test
// shares one scenario build.
func newFleetOfOne(t testing.TB, cfg StoreConfig) (*Server, *httptest.Server) {
	t.Helper()
	s := testScenario(t)
	st := NewStore(cfg)
	if err := st.Register(&spec.Expansion{Name: DefaultID, Profile: "test", Config: s.Cfg}, "test"); err != nil {
		t.Fatal(err)
	}
	srv := newTenant(s, cfg.Tenant, st.cache.partition(DefaultID))
	st.mu.Lock()
	st.insert(DefaultID, srv)
	st.mu.Unlock()
	ts := httptest.NewServer(NewFleet(st).Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newFleetOfOne(t, StoreConfig{Tenant: cfg})
}

func get(t *testing.T, url string) (int, string) {
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
	return resp.StatusCode, string(body)
}

// checkEnvelope validates a response the way cmd/apicheck does and
// returns the envelope kind.
func checkEnvelope(t *testing.T, body string) Envelope {
	t.Helper()
	e, err := ReadEnvelope(strings.NewReader(body))
	if err != nil {
		t.Fatalf("invalid envelope: %v\nbody: %s", err, body)
	}
	return e
}

// testURLs builds one representative URL per endpoint family against
// the shared test scenario.
func testURLs(s *scenario.Scenario, base string) []string {
	trace := s.Measurements[0].TraceID
	trace2 := s.Measurements[len(s.Measurements)-1].TraceID
	target := s.Measurements[0].DstAS
	as1 := s.Topo.ASNs()[0]
	as2 := s.Topo.ASNs()[1]
	return []string{
		base + "/v1/healthz",
		base + fmt.Sprintf("/v1/classify?trace=%d", trace),
		base + fmt.Sprintf("/v1/classify?trace=%d&refinement=simple", trace),
		base + fmt.Sprintf("/v1/classify?trace=%d", trace2),
		base + fmt.Sprintf("/v1/alternates?target=%s", target),
		base + "/v1/experiments/table1",
		base + "/v1/experiments/figure1?seed=11",
		base + "/v1/experiments/prediction",
		base + fmt.Sprintf("/v1/as/%s", as1),
		base + fmt.Sprintf("/v1/as/%s", as2),
	}
}

func TestEndpoints(t *testing.T) {
	s := testScenario(t)
	_, ts := newTestServer(t, Config{})
	wantKinds := []string{"health", "classify", "classify", "classify",
		"alternates", "experiment", "experiment", "experiment", "as", "as"}
	for i, url := range testURLs(s, ts.URL) {
		status, body := get(t, url)
		if status != http.StatusOK {
			t.Errorf("%s: status %d\n%s", url, status, body)
			continue
		}
		if e := checkEnvelope(t, body); e.Kind != wantKinds[i] {
			t.Errorf("%s: kind %q, want %q", url, e.Kind, wantKinds[i])
		}
	}

	// /v1/metrics is served after traffic so the per-endpoint counters
	// exist; it must report them.
	status, body := get(t, ts.URL+"/v1/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	if e := checkEnvelope(t, body); e.Kind != "metrics" {
		t.Errorf("metrics kind %q", e.Kind)
	}
	for _, want := range []string{"service.requests.healthz", "service.requests.classify", "service/experiments"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Text rendering of an experiment matches the registry rendering.
	status, body = get(t, ts.URL+"/v1/experiments/table1?format=text")
	if status != http.StatusOK || !strings.Contains(body, "Table 1") {
		t.Errorf("text format: status %d body %q...", status, body[:min(60, len(body))])
	}
}

// TestErrors covers one failure per endpoint family: every response is
// a JSON error envelope with the expected code, and each family's
// service.errors.<name> rises by exactly its error responses — unknown
// routes and wrong methods included, under notfound.
func TestErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		method, url, body string
		want              int
		code, name        string // envelope code; endpoint family that counts it
	}{
		{"GET", "/v1/nope", "", http.StatusNotFound, CodeNotFound, "notfound"},
		{"GET", "/nope", "", http.StatusNotFound, CodeNotFound, "notfound"},
		{"POST", "/v1/healthz", "", http.StatusNotFound, CodeNotFound, "notfound"},
		{"GET", "/v1/experiments/bogus", "", http.StatusNotFound, CodeNotFound, "experiments"},
		{"GET", "/v1/classify", "", http.StatusBadRequest, CodeBadParam, "classify"},
		{"GET", "/v1/classify?trace=zzz", "", http.StatusBadRequest, CodeBadParam, "classify"},
		{"GET", "/v1/classify?trace=99999999", "", http.StatusNotFound, CodeNotFound, "classify"},
		{"GET", "/v1/classify?trace=0&refinement=bogus", "", http.StatusBadRequest, CodeBadParam, "classify"},
		{"GET", "/v1/alternates", "", http.StatusBadRequest, CodeBadParam, "alternates"},
		{"GET", "/v1/alternates?target=zzz", "", http.StatusBadRequest, CodeBadParam, "alternates"},
		{"GET", "/v1/alternates?target=64999", "", http.StatusNotFound, CodeNotFound, "alternates"},
		{"GET", "/v1/as/notanumber", "", http.StatusBadRequest, CodeBadParam, "as"},
		{"GET", "/v1/as/64999", "", http.StatusNotFound, CodeNotFound, "as"},
		{"GET", "/v1/experiments/table1?seed=zzz", "", http.StatusBadRequest, CodeBadParam, "experiments"},
		{"GET", "/v1/experiments/table1?format=yaml", "", http.StatusBadRequest, CodeBadParam, "experiments"},
		{"POST", "/v1/whatif", strings.Repeat(" ", maxWhatIfBytes+1), http.StatusRequestEntityTooLarge, CodeTooLarge, "whatif"},
	}
	before := obs.Snap().Counters
	wantErrors := make(map[string]int64)
	for _, tc := range cases {
		wantErrors[tc.name]++
		req, err := http.NewRequest(tc.method, ts.URL+tc.url, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.url, resp.StatusCode, tc.want)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", tc.method, tc.url, ct)
		}
		var ed ErrorData
		if e := checkEnvelope(t, string(body)); e.Kind != "error" || json.Unmarshal(e.Data, &ed) != nil || ed.Code != tc.code {
			t.Errorf("%s %s: kind %q code %q, want an %q error", tc.method, tc.url, e.Kind, ed.Code, tc.code)
		}
	}
	after := obs.Snap().Counters
	for name, n := range wantErrors {
		if got := after["service.errors."+name] - before["service.errors."+name]; got != n {
			t.Errorf("service.errors.%s rose by %d, want %d", name, got, n)
		}
	}
}

func TestRequestTimeout(t *testing.T) {
	// A deadline this tight expires before the computation is admitted,
	// so the experiment endpoint must answer 504 deterministically.
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	status, body := get(t, ts.URL+"/v1/experiments/table1")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504\n%s", status, body)
	}
	if e := checkEnvelope(t, body); e.Kind != "error" {
		t.Errorf("kind %q, want error", e.Kind)
	}
	// Cheap parameter errors still win over the deadline.
	if status, _ := get(t, ts.URL+"/v1/experiments/bogus"); status != http.StatusNotFound {
		t.Errorf("unknown experiment under timeout: status %d, want 404", status)
	}
}

// TestConcurrentMatchesSerial is the serve-time determinism contract:
// >= 64 concurrent mixed queries (with a deliberately tiny gate and
// cache to force queueing and eviction) must produce responses
// byte-identical to a serial baseline.
func TestConcurrentMatchesSerial(t *testing.T) {
	s := testScenario(t)
	_, ts := newFleetOfOne(t, StoreConfig{CacheSize: 3, Tenant: Config{MaxConcurrent: 2}})
	urls := testURLs(s, ts.URL)

	baseline := make(map[string]string, len(urls))
	for _, u := range urls {
		status, body := get(t, u)
		if status != http.StatusOK {
			t.Fatalf("baseline %s: status %d", u, status)
		}
		baseline[u] = body
	}

	const clients = 72
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
			if string(body) != baseline[u] {
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

// TestShutdownDrains exercises the graceful-drain path: a request in
// flight when Shutdown is called must complete with its full response.
func TestShutdownDrains(t *testing.T) {
	s := testScenario(t)
	_, httpSrv := newTestServer(t, Config{})
	// Take over the lifecycle from httptest: issue a fresh (uncached,
	// non-trivial) request, then shut down while it runs.
	url := httpSrv.URL + fmt.Sprintf("/v1/alternates?target=%s", s.Measurements[1].DstAS)
	type result struct {
		status int
		body   string
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, body: string(b), err: err}
	}()
	time.Sleep(10 * time.Millisecond) // let the request reach the handler
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Config.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request: status %d\n%s", r.status, r.body)
	}
	checkEnvelope(t, r.body)
}

func TestCacheCoalescesAndCounts(t *testing.T) {
	s := testScenario(t)
	obs.Reset()
	srv, ts := newTestServer(t, Config{})
	url := ts.URL + fmt.Sprintf("/v1/classify?trace=%d", s.Measurements[2].TraceID)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if srv.cache.len() != 1 {
		t.Errorf("cache holds %d entries, want 1", srv.cache.len())
	}
	snap := obs.Snap()
	if n := snap.Counters["service.requests.classify"]; n != 8 {
		t.Errorf("service.requests.classify = %d, want 8", n)
	}
	found := false
	for _, st := range snap.Stages {
		if st.Name == "service/classify" && st.Count == 8 {
			found = true
		}
	}
	if !found {
		t.Error("missing service/classify latency timer with 8 observations")
	}
}

func TestEnvelopeValidate(t *testing.T) {
	good := Envelope{Schema: Schema, Kind: "health", Data: []byte(`{"status":"ok"}`)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid envelope rejected: %v", err)
	}
	bad := []Envelope{
		{Schema: "routelab-api/v0", Kind: "health", Data: []byte(`{}`)},
		{Schema: Schema, Kind: "bogus", Data: []byte(`{}`)},
		{Schema: Schema, Kind: "health"},
		{Schema: Schema, Kind: "health", Data: []byte(`{`)},
	}
	for i, e := range bad {
		if e.Validate() == nil {
			t.Errorf("bad envelope %d accepted", i)
		}
	}
}
