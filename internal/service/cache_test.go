package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"routelab/internal/obs"
)

// TestCachePartitionsByTenant pins what a joined "tenant|key" string
// could not express: the tenant and the key are separate parts of an
// entry's identity, so ("a", "b|c") and ("a|b", "c") never collide, and
// purging tenant "a" leaves tenant "a|b" alone. Store.Register does not
// restrict scenario names, so the cache must not rely on any byte being
// absent from them.
func TestCachePartitionsByTenant(t *testing.T) {
	c := newCache(0)
	fill := func(p partition, key, body string) (string, bool) {
		t.Helper()
		got, hit, err := p.do(context.Background(), key, func() ([]byte, error) { return []byte(body), nil })
		if err != nil {
			t.Fatal(err)
		}
		return string(got), hit
	}
	a, ab := c.partition("a"), c.partition("a|b")
	if got, hit := fill(a, "b|c", "from a"); hit || got != "from a" {
		t.Fatalf(`("a", "b|c") first fill: body %q hit %v`, got, hit)
	}
	if got, hit := fill(ab, "c", "from a|b"); hit || got != "from a|b" {
		t.Fatalf(`("a|b", "c") was served %q (hit %v): it collided with ("a", "b|c")`, got, hit)
	}
	if n := a.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}

	c.purge("a")
	if n := a.len(); n != 1 {
		t.Fatalf(`cache holds %d entries after purging "a", want 1`, n)
	}
	if got, hit := fill(ab, "c", "recomputed"); !hit || got != "from a|b" {
		t.Errorf(`purging "a" dropped tenant "a|b"'s entry: body %q hit %v`, got, hit)
	}
	if got, hit := fill(a, "b|c", "recomputed"); hit || got != "recomputed" {
		t.Errorf(`purged entry still served: body %q hit %v`, got, hit)
	}
}

// serveAsync serves r through ts's handler on a goroutine of its own —
// the fault suite's legs hold one request while they send others — and
// hands back the recorded response.
func serveAsync(ts *httptest.Server, r *http.Request) <-chan *httptest.ResponseRecorder {
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(rec, r)
		done <- rec
	}()
	return done
}

// TestCoalescedWaiterSurvivesLeaderCancel is the cancel-mid-request leg
// of the service fault suite: a client that joined an in-flight
// /v1/experiments/all computation must not inherit the failure of the
// client that started it and then hung up. The leader's context dies
// once "all" is under way, so runAll reports it wrapped ("experiments:
// table1: context canceled") and the waiter has to recognise it with
// errors.Is before retrying on its own live context: it gets 200 and
// the bytes an unloaded server computes, and exactly one request — the
// leader's own — counts as an error.
func TestCoalescedWaiterSurvivesLeaderCancel(t *testing.T) {
	const path = "/v1/experiments/all"
	_, control := newTestServer(t, Config{})
	status, want := get(t, control.URL+path)
	if status != http.StatusOK {
		t.Fatalf("control: status %d\n%s", status, want)
	}

	obs.Reset()
	srv, ts := newTestServer(t, Config{})
	entered := make(chan struct{}, 2) // the leader's computation, then the waiter's retry
	release := make(chan struct{})
	srv.computeHook = func() {
		entered <- struct{}{}
		<-release
	}
	serve := func(ctx context.Context) <-chan *httptest.ResponseRecorder {
		return serveAsync(ts, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
	}

	// The leader's client hangs up the moment "all" starts: past the
	// experiment's own entry check, before its first part.
	leaderCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	defer obs.OnStage(func(name string, begin bool) {
		if begin && name == "experiment/all" {
			hangUp()
		}
	})()

	leader := serve(leaderCtx)
	<-entered // the leader holds its compute slot
	waiter := serve(context.Background())
	waitUntil(t, "waiter's handler to start", func() bool {
		return obs.Snap().Counters["service.requests.experiments"] == 2
	})
	// From the request counter to parking on the in-flight call is a
	// store lookup and a map probe; parking itself is not observable
	// without instrumenting the cache, so this is a grace period. A late
	// waiter computes for itself and passes either way.
	time.Sleep(50 * time.Millisecond)
	close(release)

	if rec := <-leader; rec.Code != http.StatusGatewayTimeout {
		t.Errorf("leader (hung up mid-request): status %d, want 504\n%s", rec.Code, rec.Body)
	}
	rec := <-waiter
	if rec.Code != http.StatusOK {
		t.Fatalf("waiter: status %d, want 200 — it inherited the leader's cancellation\n%s", rec.Code, rec.Body)
	}
	if rec.Body.String() != want {
		t.Error("waiter's body differs from the unloaded control's")
	}
	if n := obs.Snap().Counters["service.errors.experiments"]; n != 1 {
		t.Errorf("service.errors.experiments = %d, want 1 (the leader only)", n)
	}
}

// TestPanicInComputationDoesNotPoisonKey is the panic-in-a-handler leg
// of the service fault suite. A computation that panics (an unretained
// RIB read is a deliberate one) used to leave its in-flight entry
// registered and its done channel open: every later request for the key
// parked on it until its deadline and answered 504, forever. Now the
// leader and the three requests coalesced onto it each get a typed,
// uncached 500, service.panics counts exactly those four, the gate slot
// is back, and the next request for the key computes normally.
func TestPanicInComputationDoesNotPoisonKey(t *testing.T) {
	const path = "/v1/as/137"
	_, control := newTestServer(t, Config{})
	status, want := get(t, control.URL+path)
	if status != http.StatusOK {
		t.Fatalf("control: status %d\n%s", status, want)
	}

	obs.Reset()
	srv, ts := newTestServer(t, Config{})
	var broken atomic.Bool
	broken.Store(true)
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	srv.computeHook = func() {
		if broken.Load() {
			entered <- struct{}{}
			<-release
			panic("bgp: RIB read of AS137's route for 10.0.0.0/8, which no declared reader retains")
		}
	}
	serve := func() <-chan *httptest.ResponseRecorder {
		return serveAsync(ts, httptest.NewRequest(http.MethodGet, path, nil))
	}

	recs := []<-chan *httptest.ResponseRecorder{serve()}
	<-entered // the leader holds its compute slot, about to panic
	for i := 0; i < 3; i++ {
		recs = append(recs, serve())
	}
	waitUntil(t, "the waiters' handlers to start", func() bool {
		return obs.Snap().Counters["service.requests.as"] == 4
	})
	// As in TestCoalescedWaiterSurvivesLeaderCancel, parking on the
	// in-flight call is not observable: a grace period. A waiter that
	// arrives late leads a computation of its own, which panics too.
	time.Sleep(50 * time.Millisecond)
	close(release)

	for i, ch := range recs {
		rec := <-ch
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500\n%s", i, rec.Code, rec.Body)
		}
		if got := rec.Header().Get(CacheHeader); got != "" {
			t.Errorf("request %d: %s %q on an error", i, CacheHeader, got)
		}
		env := checkEnvelope(t, rec.Body.String())
		var ed ErrorData
		if err := json.Unmarshal(env.Data, &ed); err != nil || env.Kind != "error" {
			t.Fatalf("request %d: kind %q, data error %v", i, env.Kind, err)
		}
		if ed.Code != CodeInternal {
			t.Errorf("request %d: code %q, want %q", i, ed.Code, CodeInternal)
		}
	}
	snap := obs.Snap()
	if n := snap.Counters["service.panics"]; n != 4 {
		t.Errorf("service.panics = %d, want 4: one per 500 a client saw", n)
	}
	if n := snap.Counters["service.errors.as"]; n != 4 {
		t.Errorf("service.errors.as = %d, want 4", n)
	}
	if n := srv.gate.Waiting(); n != 0 {
		t.Errorf("gate.Waiting() = %d after the panic, want 0", n)
	}
	t.Logf("%d of 4 requests led a computation", len(entered)+1)

	// The key is not poisoned and nothing of the failure was cached.
	broken.Store(false)
	rec := <-serve()
	if rec.Code != http.StatusOK || rec.Header().Get(CacheHeader) != "miss" {
		t.Fatalf("after the panic: status %d, %s %q, want 200 computed afresh\n%s", rec.Code, CacheHeader, rec.Header().Get(CacheHeader), rec.Body)
	}
	if rec.Body.String() != want {
		t.Error("body after the panic differs from the unloaded control's")
	}
}

// TestPanicInBuildDoesNotPoisonScenario is the same leg at the store's
// build singleflight, which has the same shape: a build that panics is
// a typed 500 and a failed tracker, not a scenario id that parks every
// later request on a call nobody will retire.
func TestPanicInBuildDoesNotPoisonScenario(t *testing.T) {
	obs.Reset()
	st, ts := newTestFleet(t, StoreConfig{}, testExpansion("alpha", 1))
	var broken atomic.Bool
	broken.Store(true)
	st.buildHook = func(string) {
		if broken.Load() {
			panic("scenario: broken invariant")
		}
	}
	url := ts.URL + "/v1/scenarios/alpha/healthz"
	status, body := get(t, url)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking build: status %d, want 500\n%s", status, body)
	}
	env := checkEnvelope(t, body)
	var ed ErrorData
	if err := json.Unmarshal(env.Data, &ed); err != nil || ed.Code != CodeInternal {
		t.Errorf("panicking build: kind %q code %q (%v), want an %q error", env.Kind, ed.Code, err, CodeInternal)
	}
	if n := obs.Snap().Counters["service.panics"]; n != 1 {
		t.Errorf("service.panics = %d, want 1", n)
	}
	if d, err := st.BuildProgress("alpha"); err != nil || d.State != BuildFailed || d.Error == "" {
		t.Errorf("build tracker after the panic: %+v, %v; want failed with its error", d, err)
	}
	if n := st.buildGate.Waiting(); n != 0 {
		t.Errorf("buildGate.Waiting() = %d, want 0", n)
	}

	broken.Store(false)
	if status, body := get(t, url); status != http.StatusOK {
		t.Fatalf("build after the panic: status %d, want 200\n%s", status, body)
	}
}

// TestCancelMidBuildKeepsBuild is the cancel-mid-build leg of the
// service fault suite. The leader of alpha's build hangs up while the
// build is held in buildHook, and a second client is coalesced onto
// that build. The build is not the leader's to cancel: it completes and
// is kept, the waiter is served from it, and the leader — whose request
// is dead by the time it reaches its own compute — gets a typed 504.
// Every counter says exactly that: one build, one error, the leader's.
func TestCancelMidBuildKeepsBuild(t *testing.T) {
	obs.Reset()
	st, ts := newTestFleet(t, StoreConfig{}, testExpansion("alpha", 1))
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	st.buildHook = func(string) {
		entered <- struct{}{}
		<-release
	}
	serve := func(ctx context.Context, path string) <-chan *httptest.ResponseRecorder {
		return serveAsync(ts, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
	}

	leaderCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	leader := serve(leaderCtx, "/v1/scenarios/alpha/experiments/table1")
	<-entered // the leader's build holds the build slot
	waiter := serve(context.Background(), "/v1/scenarios/alpha/healthz")
	waitUntil(t, "waiter's handler to start", func() bool {
		return obs.Snap().Counters["service.requests.healthz"] == 1
	})
	// As in TestCoalescedWaiterSurvivesLeaderCancel, parking on the
	// build is not observable: a grace period. A late waiter is an LRU
	// hit on the kept build instead, and passes either way.
	time.Sleep(50 * time.Millisecond)
	hangUp()
	close(release)

	rec := <-leader
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("leader (hung up mid-build): status %d, want 504\n%s", rec.Code, rec.Body)
	}
	var ed ErrorData
	if env := checkEnvelope(t, rec.Body.String()); env.Kind != "error" || json.Unmarshal(env.Data, &ed) != nil || ed.Code != CodeTimeout {
		t.Errorf("leader: kind %q code %q, want an %q error", env.Kind, ed.Code, CodeTimeout)
	}
	if rec := <-waiter; rec.Code != http.StatusOK {
		t.Fatalf("waiter: status %d, want 200\n%s", rec.Code, rec.Body)
	}
	if d, err := st.BuildProgress("alpha"); err != nil || d.State != BuildBuilt {
		t.Errorf("build after the leader hung up: %+v, %v; want built", d, err)
	}
	snap := obs.Snap()
	for name, want := range map[string]int64{
		"service.scenario.builds":      1,
		"service.requests.experiments": 1,
		"service.errors.experiments":   1,
		"service.requests.healthz":     1,
		"service.errors.healthz":       0,
		"service.scenario.evictions":   0,
		"service.panics":               0,
		"service.shed.builds":          0,
	} {
		if n := snap.Counters[name]; n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
	if n := snap.Counters["service.scenario.hits"]; n != 0 {
		t.Logf("the waiter arrived after the build (service.scenario.hits = %d)", n)
	}
	if n := st.buildGate.Waiting(); n != 0 {
		t.Errorf("buildGate.Waiting() = %d, want 0", n)
	}

	// The kept build serves the leader's request without another build.
	if status, body := get(t, ts.URL+"/v1/scenarios/alpha/experiments/table1"); status != http.StatusOK {
		t.Fatalf("after the hang-up: status %d\n%s", status, body)
	}
	if n := obs.Snap().Counters["service.scenario.builds"]; n != 1 {
		t.Errorf("service.scenario.builds = %d after a repeat, want 1", n)
	}
}
