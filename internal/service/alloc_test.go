package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"routelab/internal/race"
	"routelab/internal/scenario"
	"routelab/internal/whatif"
)

// TestAllocsCachedRequest is the allocation ceiling of the serve_hot
// path: a cache-hit request through the fleet handler, tenant resolution
// and response-cache lookup included (the request is built once; the
// recorder is per run). The ceilings are the counts measured before the
// response cache and the tenant store shared one lru, so a cache that
// allocates per hit fails here before it shows in a benchmark. They skip
// under -race, whose instrumentation changes allocation counts.
func TestAllocsCachedRequest(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	_, ts := newTestServer(t, Config{})
	s := testScenario(t)
	h := ts.Config.Handler
	for _, tc := range []struct {
		path string
		max  float64
	}{
		{fmt.Sprintf("/v1/as/%s", s.Topo.ASNs()[0]), 18},
		{fmt.Sprintf("/v1/classify?trace=%d", s.Measurements[0].TraceID), 23},
	} {
		r := httptest.NewRequest(http.MethodGet, tc.path, nil)
		serve := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			return rec
		}
		if rec := serve(); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", tc.path, rec.Code, rec.Body)
		}
		if rec := serve(); rec.Header().Get(CacheHeader) != "hit" {
			t.Fatalf("%s: second request was not a cache hit", tc.path)
		}
		if got := testing.AllocsPerRun(100, func() { serve() }); got > tc.max {
			t.Errorf("%s: %.0f allocations per cache-hit request, want at most %.0f", tc.path, got, tc.max)
		} else {
			t.Logf("%s: %.0f allocations per cache-hit request", tc.path, got)
		}
	}
}

// heavyWhatIf compiles the heavy batch of the shared test world: two
// muxes poisoned together and a prepend, each on its own fork. Both
// entries move every AS; the body is 119 KB.
func heavyWhatIf(t testing.TB, s *scenario.Scenario) []*whatif.Compiled {
	t.Helper()
	m := s.Testbed.Muxes
	cds, err := whatif.CompileAll([]whatif.Delta{
		{Kind: whatif.Poison, Poisoned: []string{m[0].String(), m[1%len(m)].String()}},
		{Kind: whatif.Prepend, Prepend: 3},
	}, s.Topo, s.Testbed.Origin)
	if err != nil {
		t.Fatal(err)
	}
	return cds
}

// whatifLoops are the two ways to produce the heavy batch's body, with
// the allocs/op measured on it. marshaled, the reference
// TestWhatIfBodyIsMarshal holds rendered to, builds every Diff and
// marshals WhatIfData: 765 allocations (517 KB; 818 and 906 KB while
// bgp's BestDiff grew its text buffer by doubling). rendered, the
// served path, appends each result straight from its changed routes
// into one buffer sized for the batch: 43 (311 KB), most of the bytes
// the two forks' reconvergence and their diffs' route text.
var whatifLoops = []struct {
	name     string
	measured float64
	run      func(srv *Server, cds []*whatif.Compiled) ([]byte, error)
}{
	{"rendered", 43, func(srv *Server, cds []*whatif.Compiled) ([]byte, error) {
		return srv.whatifBody(context.Background(), srv.s.Testbed.Prefixes[0], cds)
	}},
	{"marshaled", 765, func(srv *Server, cds []*whatif.Compiled) ([]byte, error) {
		return marshalWhatIf(srv.s, srv.s.Testbed.Prefixes[0], cds)
	}},
}

// TestAllocsWhatIfBody gates the allocation profile of one heavy
// what-if miss, the body behind serve_miss's tail: measured + 15 %, the
// house style for a computation (internal/whatif alloc_test.go).
func TestAllocsWhatIfBody(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	srv := &Server{s: testScenario(t)}
	cds := heavyWhatIf(t, srv.s)
	for _, l := range whatifLoops {
		run := func() {
			if _, err := l.run(srv, cds); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the engine's fork storage
		if got, max := testing.AllocsPerRun(50, run), l.measured*1.15; got > max {
			t.Errorf("%s: %v allocs/op, want <= %.0f (measured %v + 15%%)", l.name, got, max, l.measured)
		}
	}
}

// BenchmarkWhatIfBody times the same two loops, for -cpuprofile and
// benchstat while working on the what-if path. Nothing reads its
// output.
func BenchmarkWhatIfBody(b *testing.B) {
	srv := &Server{s: testScenario(b)}
	cds := heavyWhatIf(b, srv.s)
	for _, l := range whatifLoops {
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body, err := l.run(srv, cds)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(body)))
			}
		})
	}
}
