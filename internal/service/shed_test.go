package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"routelab/internal/obs"
)

// waitUntil polls cond until it holds or the deadline passes — the
// saturation tests use it to wait for a caller to be parked in a gate
// queue before declaring the fleet saturated.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// getShedErr fetches url and returns the status, body, and Retry-After
// header — the triple every shed assertion needs. No test handle, so it
// is safe from the non-test goroutines the saturation tests spawn
// (t.Fatal outside the test goroutine is undefined; vet's
// testinggoroutine check enforces it).
func getShedErr(url string) (status int, body, retryAfter string, err error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, "", "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", "", err
	}
	return resp.StatusCode, string(raw), resp.Header.Get("Retry-After"), nil
}

// getShed is getShedErr for the test goroutine proper.
func getShed(t *testing.T, url string) (int, string, string) {
	t.Helper()
	status, body, ra, err := getShedErr(url)
	if err != nil {
		t.Fatal(err)
	}
	return status, body, ra
}

// getErr fetches url without a test handle (status 0 on transport
// error) — the goroutine-safe counterpart of get.
func getErr(url string) (int, string, error) {
	status, body, _, err := getShedErr(url)
	return status, body, err
}

// getQuiet fetches url from a non-test goroutine discarding the
// response: such requests exist to occupy a slot, and are either
// checked elsewhere or not at all.
func getQuiet(url string) {
	resp, err := http.Get(url)
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// checkShedResponse asserts the full shed contract on one response:
// 429, a positive integral Retry-After, and a valid error envelope
// carrying the overloaded code.
func checkShedResponse(t *testing.T, status int, body, retryAfter string) {
	t.Helper()
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429\n%s", status, body)
	}
	secs, err := strconv.Atoi(retryAfter)
	if err != nil || secs < 1 {
		t.Errorf("Retry-After %q, want a positive integer", retryAfter)
	}
	env := checkEnvelope(t, body)
	if env.Kind != "error" {
		t.Fatalf("kind %q, want error", env.Kind)
	}
	var ed ErrorData
	if err := json.Unmarshal(env.Data, &ed); err != nil {
		t.Fatalf("error data: %v", err)
	}
	if ed.Code != CodeOverloaded {
		t.Errorf("code %q, want %q", ed.Code, CodeOverloaded)
	}
}

// TestRequestSheddingExactCounters saturates a single tenant's
// admission gate — one compute slot held, one caller queued at the
// queue budget — and checks that every further distinct-key request
// sheds with the full 429 contract, that service.shed.requests matches
// the client-observed 429s EXACTLY, and that every successful response
// during and after the overload is byte-identical to an unsaturated
// control server over the same sealed scenario.
func TestRequestSheddingExactCounters(t *testing.T) {
	obs.Reset()
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueuedRequests: 1})
	_, control := newTestServer(t, Config{})

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.computeHook = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	url := func(base string, seed int) string {
		return fmt.Sprintf("%s/v1/experiments/figure1?seed=%d", base, seed)
	}

	// A occupies the only compute slot (parked in the hook).
	type result struct {
		status int
		body   string
	}
	resA := make(chan result, 1)
	go func() {
		s, b, err := getErr(url(ts.URL, 1))
		if err != nil {
			t.Error(err)
		}
		resA <- result{s, b}
	}()
	<-entered

	// B fills the queue budget (parked in gate.Enter).
	resB := make(chan result, 1)
	go func() {
		s, b, err := getErr(url(ts.URL, 2))
		if err != nil {
			t.Error(err)
		}
		resB <- result{s, b}
	}()
	waitUntil(t, "B to queue on the admission gate", func() bool { return srv.gate.Waiting() == 1 })

	// Saturated: every new key must shed, and each 429 is one counter
	// increment — the reconciliation the load harness gates on.
	const overload = 5
	for i := 0; i < overload; i++ {
		status, body, retryAfter := getShed(t, url(ts.URL, 10+i))
		checkShedResponse(t, status, body, retryAfter)
	}
	if n := obs.Snap().Counters["service.shed.requests"]; n != overload {
		t.Errorf("service.shed.requests = %d, want %d (exactly the client-observed 429s)", n, overload)
	}

	close(release)
	a, b := <-resA, <-resB
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("held requests: status %d/%d, want 200/200", a.status, b.status)
	}

	// Byte-identity under shedding: the responses that did succeed —
	// and the previously-shed keys once capacity returns — match the
	// control server byte for byte.
	if _, want := get(t, url(control.URL, 1)); want != a.body {
		t.Error("seed 1 body diverged from control under saturation")
	}
	if _, want := get(t, url(control.URL, 2)); want != b.body {
		t.Error("seed 2 body diverged from control under saturation")
	}
	for i := 0; i < overload; i++ {
		status, got := get(t, url(ts.URL, 10+i))
		if status != http.StatusOK {
			t.Fatalf("post-overload seed %d: status %d", 10+i, status)
		}
		if _, want := get(t, url(control.URL, 10+i)); want != got {
			t.Errorf("post-overload seed %d body diverged from control", 10+i)
		}
	}
	if n := obs.Snap().Counters["service.shed.requests"]; n != overload {
		t.Errorf("service.shed.requests = %d after recovery, want still %d", n, overload)
	}
}

// TestRequestSheddingCoalescedWaiters pins the counter semantics under
// singleflight: requests for the SAME key as a queued computation
// coalesce onto it and succeed together — they must NOT shed, and must
// not inflate the counter.
func TestRequestSheddingCoalescedWaiters(t *testing.T) {
	obs.Reset()
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueuedRequests: 1})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.computeHook = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}

	go getQuiet(ts.URL + "/v1/experiments/figure1?seed=1")
	<-entered
	queuedURL := ts.URL + "/v1/experiments/figure1?seed=2"
	go getQuiet(queuedURL)
	waitUntil(t, "leader to queue", func() bool { return srv.gate.Waiting() == 1 })

	// Coalesce several more clients onto the queued key, then release.
	const followers = 4
	var wg sync.WaitGroup
	statuses := make([]int, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if statuses[i], _, err = getErr(queuedURL); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Let the followers park on the in-flight call. Parking isn't
	// observable without instrumenting the cache, so this is a grace
	// period, not a synchronization point — a late follower is served
	// from cache and must not shed either way.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, s := range statuses {
		if s != http.StatusOK {
			t.Errorf("coalesced client %d: status %d, want 200", i, s)
		}
	}
	if n := obs.Snap().Counters["service.shed.requests"]; n != 0 {
		t.Errorf("service.shed.requests = %d, want 0 (coalesced waiters are not sheds)", n)
	}
}

// TestBuildSheddingExactCounters saturates the store's build gate — one
// build held via the buildHook seam, one cold-scenario leader queued at
// the queue budget — and checks that further cold scenarios shed 429
// (including waiters coalesced onto a shed build leader), that
// service.shed.builds reconciles exactly with client-observed 429s,
// that shed scenarios report "pending" (a shed never starts a build),
// and that they build cleanly once capacity returns.
func TestBuildSheddingExactCounters(t *testing.T) {
	obs.Reset()
	st, ts := newTestFleet(t, StoreConfig{MaxQueuedBuilds: 1},
		testExpansion("alpha", 1), testExpansion("beta", 2),
		testExpansion("gamma", 3), testExpansion("delta", 4))

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	st.buildHook = func(id string) {
		if id != "alpha" {
			return
		}
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	turl := func(id string) string { return ts.URL + "/v1/scenarios/" + id + "/healthz" }

	// Alpha's build holds the only build slot.
	statusA := make(chan int, 1)
	go func() {
		s, _, err := getErr(turl("alpha"))
		if err != nil {
			t.Error(err)
		}
		statusA <- s
	}()
	<-entered

	// Beta's build leader fills the build-gate queue.
	statusB := make(chan int, 1)
	go func() {
		s, _, err := getErr(turl("beta"))
		if err != nil {
			t.Error(err)
		}
		statusB <- s
	}()
	waitUntil(t, "beta to queue on the build gate", func() bool { return st.buildGate.Waiting() == 1 })

	// Two concurrent gamma clients: whichever leads the build sheds, and
	// the other either coalesces onto that shed (inheriting the
	// OverloadError) or leads its own and sheds too — both must observe
	// the full 429 contract either way. Delta sheds serially.
	var wg sync.WaitGroup
	gamma := make([]struct {
		status   int
		body, ra string
	}, 2)
	for i := range gamma {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if gamma[i].status, gamma[i].body, gamma[i].ra, err = getShedErr(turl("gamma")); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := range gamma {
		checkShedResponse(t, gamma[i].status, gamma[i].body, gamma[i].ra)
	}
	status, body, ra := getShed(t, turl("delta"))
	checkShedResponse(t, status, body, ra)

	if n := obs.Snap().Counters["service.shed.builds"]; n != 3 {
		t.Errorf("service.shed.builds = %d, want 3 (exactly the client-observed 429s)", n)
	}

	// A shed never starts a build: gamma still reports pending.
	d, err := st.BuildProgress("gamma")
	if err != nil {
		t.Fatal(err)
	}
	if d.State != BuildPending {
		t.Errorf("shed scenario state %q, want pending", d.State)
	}

	close(release)
	if s := <-statusA; s != http.StatusOK {
		t.Errorf("alpha: status %d, want 200", s)
	}
	if s := <-statusB; s != http.StatusOK {
		t.Errorf("beta (queued through the overload): status %d, want 200", s)
	}
	// Capacity is back: the shed scenarios build and serve.
	if s, b := get(t, turl("gamma")); s != http.StatusOK {
		t.Errorf("gamma after recovery: status %d\n%s", s, b)
	}
	if n := obs.Snap().Counters["service.shed.builds"]; n != 3 {
		t.Errorf("service.shed.builds = %d after recovery, want still 3", n)
	}
}
