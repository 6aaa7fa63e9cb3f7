package service

import (
	"context"
	"net/http"
	"net/http/httptest"
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
	h := ts.Config.Handler
	entered := make(chan struct{}, 2) // the leader's computation, then the waiter's retry
	release := make(chan struct{})
	srv.computeHook = func() {
		entered <- struct{}{}
		<-release
	}
	serve := func(ctx context.Context) <-chan *httptest.ResponseRecorder {
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
			done <- rec
		}()
		return done
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
