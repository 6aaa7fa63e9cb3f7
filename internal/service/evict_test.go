package service

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"routelab/internal/obs"
)

// measureTenantBytes builds one test world in a throwaway store and
// returns its accounted size — the unit the byte-budget tests size
// their budgets in, so they hold whatever the walk actually reports
// rather than a hardcoded guess.
func measureTenantBytes(t *testing.T) int64 {
	t.Helper()
	st, ts := newTestFleet(t, StoreConfig{}, testExpansion("probe", 1))
	if status, body := get(t, ts.URL+"/v1/scenarios/probe/healthz"); status != http.StatusOK {
		t.Fatalf("probe build: status %d\n%s", status, body)
	}
	info, err := st.Info("probe")
	if err != nil {
		t.Fatal(err)
	}
	if info.SizeBytes <= 0 {
		t.Fatalf("built tenant SizeBytes = %d, want > 0", info.SizeBytes)
	}
	return info.SizeBytes
}

// TestStoreByteBudgetEviction sizes a budget to hold one world but not
// two, then admits two: the second admit must evict the first by
// accounted bytes (not count), purge its cache partition, and leave
// resident bytes within budget — while the evicted world still rebuilds
// to byte-identical responses.
func TestStoreByteBudgetEviction(t *testing.T) {
	obs.Reset()
	size := measureTenantBytes(t)
	budget := size + size/2
	st, ts := newTestFleet(t, StoreConfig{MaxScenarioBytes: budget},
		testExpansion("alpha", 1), testExpansion("beta", 2))
	urlA := ts.URL + "/v1/scenarios/alpha/experiments/table1"
	urlB := ts.URL + "/v1/scenarios/beta/experiments/table1"

	status, bodyA, hdr := getHeader(t, urlA)
	if status != http.StatusOK || hdr != "miss" {
		t.Fatalf("first alpha: status %d, cache %q", status, hdr)
	}
	if got := st.ResidentBytes(); got <= 0 || got > budget {
		t.Errorf("resident bytes %d after one admit, want in (0, %d]", got, budget)
	}
	// Beta doesn't fit alongside alpha: the admit must evict by bytes.
	if status, _, _ := getHeader(t, urlB); status != http.StatusOK {
		t.Fatalf("beta: status %d", status)
	}
	if n := st.BuiltLen(); n != 1 {
		t.Errorf("BuiltLen = %d, want 1 (byte budget fits one world)", n)
	}
	if got := st.ResidentBytes(); got > budget {
		t.Errorf("resident bytes %d exceed budget %d after admit", got, budget)
	}
	if n := obs.Snap().Counters["service.scenario.evictions"]; n != 1 {
		t.Errorf("evictions = %d, want 1", n)
	}

	// No stale bytes: alpha's rebuild recomputes (miss — its cache
	// partition was purged) and the bytes match the pre-eviction body.
	status, rebuilt, hdr := getHeader(t, urlA)
	if status != http.StatusOK {
		t.Fatalf("rebuilt alpha: status %d", status)
	}
	if hdr != "miss" {
		t.Errorf("rebuilt alpha: cache %q, want miss (partition purged)", hdr)
	}
	if rebuilt != bodyA {
		t.Error("rebuilt alpha response differs from pre-eviction response")
	}
}

// TestStoreByteBudgetSoleResident pins the anti-thrash rule: a world
// bigger than the whole budget still becomes (and stays) resident when
// it is the only one — the store serves over budget rather than
// rebuilding the same scenario on every request.
func TestStoreByteBudgetSoleResident(t *testing.T) {
	st, ts := newTestFleet(t, StoreConfig{MaxScenarioBytes: 1},
		testExpansion("alpha", 1), testExpansion("beta", 2))
	urlA := ts.URL + "/v1/scenarios/alpha/experiments/table1"

	if status, _, _ := getHeader(t, urlA); status != http.StatusOK {
		t.Fatal("alpha build failed")
	}
	if n := st.BuiltLen(); n != 1 {
		t.Fatalf("BuiltLen = %d, want 1 (sole resident survives over budget)", n)
	}
	if got := st.ResidentBytes(); got <= 1 {
		t.Errorf("resident bytes %d, want the true (over-budget) cost", got)
	}
	if _, _, hdr := getHeader(t, urlA); hdr != "hit" {
		t.Errorf("repeat alpha: cache %q, want hit (still resident, not thrashing)", hdr)
	}
	// A second world displaces the first; exactly one stays resident.
	if status, _, _ := getHeader(t, ts.URL+"/v1/scenarios/beta/healthz"); status != http.StatusOK {
		t.Fatal("beta build failed")
	}
	if n := st.BuiltLen(); n != 1 {
		t.Errorf("BuiltLen = %d, want 1 after displacement", n)
	}
}

// TestStoreEvictionDifferential replays one randomized query history
// against the store and against a test-only model of its policy — an
// LRU list of (id, bytes) that evicts from the cold end while the sum
// exceeds the budget and more than one world is resident — checking
// after every step that the store's resident set and ResidentBytes
// ledger equal the model's, that a rebuilt world accounts to the same
// size, and that every id serves byte-identical bodies across evictions
// and rebuilds.
func TestStoreEvictionDifferential(t *testing.T) {
	obs.Reset()
	size := measureTenantBytes(t)
	// Half a world of slack absorbs per-seed size variation while still
	// holding exactly two.
	budget := 2*size + size/2
	st, ts := newTestFleet(t, StoreConfig{MaxScenarioBytes: budget},
		testExpansion("a", 11), testExpansion("b", 12), testExpansion("c", 13))

	ids := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(42))
	bodies := make(map[string]string) // id -> canonical table1 body
	sizes := make(map[string]int64)   // id -> SizeBytes at its first build
	var lru []string                  // the model: resident ids, most recent first
	evictions := int64(0)
	modelBytes := func() (n int64) {
		for _, id := range lru {
			n += sizes[id]
		}
		return n
	}
	// 8 steps over 3 ids against capacity 2 churns several evictions and
	// rebuilds while keeping the -race run affordable.
	for step := 0; step < 8; step++ {
		id := ids[rng.Intn(len(ids))]
		status, body, _ := getHeader(t, ts.URL+"/v1/scenarios/"+id+"/experiments/table1")
		if status != http.StatusOK {
			t.Fatalf("step %d id %s: status %d", step, id, status)
		}
		if want, ok := bodies[id]; ok && want != body {
			t.Fatalf("step %d id %s: body changed across evictions/rebuilds", step, id)
		}
		bodies[id] = body

		info, err := st.Info(id)
		if err != nil || !info.Built {
			t.Fatalf("step %d id %s: just served but not resident (err %v)", step, id, err)
		}
		if want, ok := sizes[id]; ok && want != info.SizeBytes {
			t.Fatalf("step %d id %s: rebuilt SizeBytes %d, first build %d", step, id, info.SizeBytes, want)
		}
		sizes[id] = info.SizeBytes

		// Advance the model: touch or admit id, then evict by bytes.
		if i := slices.Index(lru, id); i >= 0 {
			lru = slices.Delete(lru, i, i+1)
		}
		lru = slices.Insert(lru, 0, id)
		for modelBytes() > budget && len(lru) > 1 {
			lru = lru[:len(lru)-1]
			evictions++
		}

		var built []string
		for _, info := range st.Infos() {
			if info.Built {
				built = append(built, info.ID)
			}
		}
		want := slices.Clone(lru) // Infos is sorted by id
		slices.Sort(want)
		if !slices.Equal(built, want) {
			t.Fatalf("step %d: store holds %v, model holds %v", step, built, want)
		}
		if got, want := st.ResidentBytes(), modelBytes(); got != want {
			t.Fatalf("step %d: ResidentBytes %d != model's %d", step, got, want)
		}
	}
	if evictions == 0 {
		t.Fatal("history evicted nothing; the differential compared nothing")
	}
	if n := obs.Snap().Counters["service.scenario.evictions"]; n != evictions {
		t.Errorf("service.scenario.evictions = %d, model evicted %d", n, evictions)
	}
}

// TestEvictWithRequestInFlight is the evict-mid-request leg of the
// service fault suite. A POST /v1/scenarios/alpha/whatif is held in its
// compute slot while a beta request evicts alpha under a one-world byte
// budget. The held request still holds alpha's tenant, so it keeps
// forking that tenant's Base and answers 200 with the unloaded
// control's bytes; nothing counts as an error, the gate line is empty,
// and — as cache.purge documents — the in-flight computation completes
// and re-inserts its body, so alpha's rebuild serves those very bytes
// from the cache.
func TestEvictWithRequestInFlight(t *testing.T) {
	const (
		path = "/v1/scenarios/alpha/whatif"
		doc  = `{"schema":"routelab-whatif/v1","delta":{"kind":"withdraw"}}`
	)
	_, control := newTestFleet(t, StoreConfig{}, testExpansion("alpha", 1))
	status, want, _ := postWhatIf(t, control.URL+path, doc)
	if status != http.StatusOK {
		t.Fatalf("control: status %d\n%s", status, want)
	}
	size := measureTenantBytes(t)

	obs.Reset()
	st, ts := newTestFleet(t, StoreConfig{MaxScenarioBytes: size + size/2},
		testExpansion("alpha", 1), testExpansion("beta", 2))
	alpha, err := st.Get(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	alpha.computeHook = func() {
		entered <- struct{}{}
		<-release
	}
	held := serveAsync(ts, httptest.NewRequest(http.MethodPost, path, strings.NewReader(doc)))
	<-entered // the what-if holds alpha's compute slot

	if status, body := get(t, ts.URL+"/v1/scenarios/beta/healthz"); status != http.StatusOK {
		t.Fatalf("beta: status %d\n%s", status, body)
	}
	if info, err := st.Info("alpha"); err != nil || info.Built {
		t.Fatalf("alpha still resident after beta's admit (err %v)", err)
	}
	close(release)

	rec := <-held
	if rec.Code != http.StatusOK {
		t.Fatalf("held request: status %d, want 200\n%s", rec.Code, rec.Body)
	}
	if rec.Body.String() != want {
		t.Error("held request's body differs from the unloaded control's")
	}
	snap := obs.Snap()
	if n := snap.Counters["service.scenario.evictions"]; n != 1 {
		t.Errorf("service.scenario.evictions = %d, want 1", n)
	}
	for name, n := range snap.Counters {
		if strings.HasPrefix(name, "service.errors.") && n != 0 {
			t.Errorf("%s = %d, want 0", name, n)
		}
	}
	if n := alpha.gate.Waiting(); n != 0 {
		t.Errorf("gate.Waiting() = %d, want 0", n)
	}

	// Alpha rebuilds; the body the evicted tenant's computation
	// re-inserted is the one served, byte for byte.
	status, body, hdr := postWhatIf(t, ts.URL+path, doc)
	if status != http.StatusOK || body != want {
		t.Fatalf("rebuilt alpha: status %d, body equal to the control's: %v", status, body == want)
	}
	if hdr != "hit" {
		t.Errorf("rebuilt alpha: cache %q, want hit (the in-flight computation re-inserted)", hdr)
	}
	if n := obs.Snap().Counters["service.scenario.builds"]; n != 3 {
		t.Errorf("service.scenario.builds = %d, want 3 (alpha, beta, alpha again)", n)
	}
}
