// Package routelab_test holds the benchmark harness: one benchmark per
// table and figure of the paper's evaluation (regenerating the same
// rows/series), plus micro-benchmarks of the substrates they stand on.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Any run that executes at least one benchmark also writes
// BENCH_routelab.json — a machine-readable emission (schema
// routelab-bench/v1, see internal/obs) with per-benchmark ns/op and
// allocs/op plus the obs counters the benchmarked code recorded.
// cmd/benchcheck validates the file; CI's bench-smoke job runs both and
// archives the artifact, so the perf trajectory is comparable across
// commits. Set ROUTELAB_BENCH_JSON to redirect the emission.
//
// The per-experiment benchmarks share one lazily-built scenario (the
// expensive part — topology generation plus two full routing
// convergences — is measured separately by BenchmarkScenarioBuild at a
// reduced scale).
package routelab_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/classify"
	"routelab/internal/experiments"
	"routelab/internal/gaorexford"
	"routelab/internal/obs"
	"routelab/internal/scenario"
	"routelab/internal/service"
	"routelab/internal/spec"
	"routelab/internal/topology"
	"routelab/internal/whatif"
	"routelab/internal/wire"
)

// TestMain writes the BENCH_routelab.json emission after the run when
// any benchmark recorded a result (plain `go test` writes nothing).
func TestMain(m *testing.M) {
	code := m.Run()
	if err := writeBenchReport(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: emission failed:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

var (
	benchRecMu   sync.Mutex
	benchRecords = map[string]obs.BenchResult{}
)

// measured records one benchmark invocation for the JSON emission:
//
//	defer measured(b)()
//
// placed AFTER setup (and any ResetTimer), so the alloc window excludes
// shared fixtures. The benchmark framework may invoke a benchmark
// several times with growing b.N; the record with the largest N (the
// one the framework reports) wins.
func measured(b *testing.B) func() {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() {
		if b.Skipped() || b.N == 0 {
			return
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		elapsed := b.Elapsed()
		if elapsed <= 0 {
			elapsed = 1 // clamp: sub-ns ops still validate as timed
		}
		rec := obs.BenchResult{
			Name:        b.Name(),
			N:           b.N,
			NsPerOp:     float64(elapsed.Nanoseconds()) / float64(b.N),
			AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(b.N),
			BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N),
		}
		benchRecMu.Lock()
		defer benchRecMu.Unlock()
		if prev, ok := benchRecords[rec.Name]; !ok || rec.N >= prev.N {
			benchRecords[rec.Name] = rec
		}
	}
}

// writeBenchReport assembles and validates the emission; no benchmarks
// recorded means nothing to write (not an error).
func writeBenchReport() error {
	benchRecMu.Lock()
	defer benchRecMu.Unlock()
	if len(benchRecords) == 0 {
		return nil
	}
	rep := obs.NewBenchReport()
	for _, rec := range benchRecords {
		rep.Benchmarks = append(rep.Benchmarks, rec)
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})
	rep.Metrics = obs.Snap()
	path := os.Getenv("ROUTELAB_BENCH_JSON")
	if path == "" {
		path = "BENCH_routelab.json"
	}
	if err := rep.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %d results written to %s\n", len(rep.Benchmarks), path)
	return nil
}

var (
	benchOnce sync.Once
	benchScen *scenario.Scenario
	benchErr  error
)

// benchScenario builds the shared evaluation scenario once. The build
// error (not just its occurrence) is cached alongside the scenario, so
// every subsequent benchmark reports WHY the build failed instead of
// skipping silently.
func benchScenario(b *testing.B) *scenario.Scenario {
	b.Helper()
	benchOnce.Do(func() {
		cfg := scenario.TestConfig()
		cfg.Topology.Scale = 0.2
		cfg.NumProbes = 400
		cfg.TracesTarget = 5000
		benchScen, benchErr = scenario.Build(cfg, nil)
	})
	if benchErr != nil {
		b.Skipf("scenario build failed: %v", benchErr)
	}
	return benchScen
}

// BenchmarkTable1Probes regenerates Table 1 (probe distribution by AS
// class).
func BenchmarkTable1Probes(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard, s)
	}
}

// BenchmarkFigure1Breakdown regenerates Figure 1 (the decision
// classification across all seven refinement columns).
func BenchmarkFigure1Breakdown(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		experiments.Figure1(io.Discard, s)
	}
}

// BenchmarkTable2Magnet regenerates Table 2 (the magnet/anycast
// experiment and its decision-step classification).
func BenchmarkTable2Magnet(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		experiments.Table2(io.Discard, s, rand.New(rand.NewSource(int64(i))))
	}
}

// BenchmarkFigure2Skew regenerates Figure 2 (violation skew CDFs).
func BenchmarkFigure2Skew(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		experiments.Figure2(io.Discard, s)
	}
}

// BenchmarkFigure3Continents regenerates Figure 3 (geographic
// breakdown).
func BenchmarkFigure3Continents(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		experiments.Figure3(io.Discard, s)
	}
}

// BenchmarkTable3Domestic regenerates Table 3 (domestic-path
// preference attribution).
func BenchmarkTable3Domestic(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		experiments.Table3(io.Discard, s)
	}
}

// BenchmarkTable4Cables regenerates Table 4 (undersea-cable
// attribution).
func BenchmarkTable4Cables(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		experiments.Table4(io.Discard, s)
	}
}

// BenchmarkAlternateRoutes regenerates the §4.4 alternate-route
// discovery campaign (iterated poisoning against every observed
// target).
func BenchmarkAlternateRoutes(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		experiments.Alternates(io.Discard, s, rand.New(rand.NewSource(int64(i))))
	}
}

// BenchmarkScenarioBuild measures the end-to-end cost of assembling a
// (reduced-scale) scenario — topology generation, two full routing
// convergences, five feed snapshots, inference, and the traceroute
// campaign — on the serial reference path (RoutingWorkers=1).
func BenchmarkScenarioBuild(b *testing.B) {
	benchmarkScenarioBuild(b, 1)
}

// BenchmarkScenarioBuildParallel is the same build with the worker pool
// at GOMAXPROCS; the ratio to BenchmarkScenarioBuild is the end-to-end
// parallel speedup.
func BenchmarkScenarioBuildParallel(b *testing.B) {
	benchmarkScenarioBuild(b, 0)
}

func benchmarkScenarioBuild(b *testing.B, workers int) {
	defer measured(b)()
	cfg := scenario.TestConfig()
	cfg.NumProbes = 120
	cfg.TracesTarget = 1200
	cfg.RoutingWorkers = workers
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := scenario.Build(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---------------------------------------

// BenchmarkConvergePrefix measures one prefix's route-vector
// convergence over the full-size topology (the unit of work behind
// every experiment).
func BenchmarkConvergePrefix(b *testing.B) {
	topo := topology.Generate(1, topology.DefaultConfig())
	engine := bgp.New(topo, 1)
	prefixes := topo.OriginatedPrefixes()
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		p := prefixes[i%len(prefixes)]
		c := engine.NewComputation(p)
		c.Announce(bgp.Announcement{Origin: topo.OriginOf(p)})
		c.Converge()
	}
}

// BenchmarkPoisonReconverge measures the incremental reconvergence
// after a poisoned announcement — the inner loop of the §3.2
// experiments.
func BenchmarkPoisonReconverge(b *testing.B) {
	topo := topology.Generate(1, topology.TestConfig())
	engine := bgp.New(topo, 1)
	peeringAS := topo.Names["peering"]
	p := topo.AS(peeringAS).Prefixes[0]
	mux := topo.Names["mux-0"]
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		c := engine.NewComputation(p)
		c.Announce(bgp.Announcement{Origin: peeringAS})
		c.Converge()
		c.Announce(bgp.Announcement{Origin: peeringAS, Poisoned: []asn.ASN{mux}})
		c.Converge()
	}
}

// BenchmarkForkReconverge measures the same poisoned reconvergence as
// BenchmarkPoisonReconverge, but starting from a copy-on-write Fork of
// one shared converged base instead of rebuilding and re-converging a
// fresh computation per iteration — the campaign shape after ISSUE 5.
// The ratio to BenchmarkPoisonReconverge is the fork speedup.
func BenchmarkForkReconverge(b *testing.B) {
	topo := topology.Generate(1, topology.TestConfig())
	engine := bgp.New(topo, 1)
	peeringAS := topo.Names["peering"]
	p := topo.AS(peeringAS).Prefixes[0]
	mux := topo.Names["mux-0"]
	base := engine.NewComputation(p)
	base.Announce(bgp.Announcement{Origin: peeringAS})
	base.Converge()
	base.Freeze()
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		c := base.Fork()
		c.Announce(bgp.Announcement{Origin: peeringAS, Poisoned: []asn.ASN{mux}})
		c.Converge()
	}
}

// BenchmarkWhatIfDelta measures one what-if evaluation the engine's way:
// fork the shared frozen converged base, apply a compiled delta (an
// in-use origin uplink failing), re-converge incrementally, and diff —
// the unit of work behind every POST /v1/whatif entry.
func BenchmarkWhatIfDelta(b *testing.B) {
	base, cd, _, _ := whatIfBenchFixture(b)
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		if _, err := whatif.Eval(base, cd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhatIfRebuild evaluates the same delta the pre-fork way: a
// from-scratch computation per iteration (announce + full convergence)
// mutated and diffed against the same frozen base. The ratio to
// BenchmarkWhatIfDelta is the incremental-engine speedup cmd/benchcheck
// gates with -min-whatif-speedup.
func BenchmarkWhatIfRebuild(b *testing.B) {
	base, cd, engine, origin := whatIfBenchFixture(b)
	p := base.Prefix()
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		c := engine.NewComputation(p)
		c.Announce(bgp.Announcement{Origin: origin})
		c.Converge()
		if _, err := whatif.EvalOn(c, base, cd); err != nil {
			b.Fatal(err)
		}
	}
}

// whatIfBenchFixture builds the shared what-if benchmark world: the
// test topology's peering origin announcing its prefix, converged and
// frozen, plus a compiled link-failure delta on the origin's mux-0
// uplink (a link carrying live best routes, so the reconvergence does
// real work).
func whatIfBenchFixture(b *testing.B) (*bgp.Computation, *whatif.Compiled, *bgp.Engine, asn.ASN) {
	b.Helper()
	topo := topology.Generate(1, topology.TestConfig())
	engine := bgp.New(topo, 1)
	origin := topo.Names["peering"]
	mux := topo.Names["mux-0"]
	cd, err := whatif.Compile(whatif.Delta{
		Kind: whatif.LinkFailure,
		A:    origin.String(),
		B:    mux.String(),
	}, topo, origin)
	if err != nil {
		b.Fatal(err)
	}
	base := engine.NewComputation(topo.AS(origin).Prefixes[0])
	base.Announce(bgp.Announcement{Origin: origin})
	base.Converge()
	base.Freeze()
	return base, cd, engine, origin
}

// BenchmarkWireUpdateRoundTrip measures RFC 4271 UPDATE encode+decode.
func BenchmarkWireUpdateRoundTrip(b *testing.B) {
	u := wire.Update{
		Origin:  wire.OriginIGP,
		ASPath:  asn.PathFromASNs(3356, 174, 65000).PrependSet([]asn.ASN{64512, 64513}).Prepend(3356),
		NextHop: asn.AddrFrom4(192, 0, 2, 1),
		NLRI: []asn.Prefix{
			asn.NewPrefix(asn.AddrFrom4(198, 51, 100, 0), 24),
			asn.NewPrefix(asn.AddrFrom4(203, 0, 113, 0), 25),
		},
	}
	var buf []byte
	b.ResetTimer()
	b.ReportAllocs()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		buf = u.Encode(buf[:0])
		if _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifyDecision measures a single decision classification
// under the combined All-1 refinement (model caches warm).
func BenchmarkClassifyDecision(b *testing.B) {
	s := benchScenario(b)
	ds := s.Decisions()
	if len(ds) == 0 {
		b.Skip("no decisions")
	}
	// Warm caches.
	for _, d := range ds[:min(len(ds), 256)] {
		s.Context.Classify(d, classify.All1)
	}
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		s.Context.Classify(ds[i%len(ds)], classify.All1)
	}
}

// BenchmarkPathPrediction measures the path-predictor extension over the
// campaign's measured paths.
func BenchmarkPathPrediction(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		experiments.Prediction(io.Discard, s)
	}
}

// BenchmarkGaoRexfordCompute measures one destination's model
// computation over the inferred full-scale-style graph.
func BenchmarkGaoRexfordCompute(b *testing.B) {
	s := benchScenario(b)
	ds := s.Decisions()
	if len(ds) == 0 {
		b.Skip("no decisions")
	}
	b.ResetTimer()
	defer measured(b)()
	for i := 0; i < b.N; i++ {
		gaorexford.Compute(s.Context.Graph, ds[i%len(ds)].DstAS)
	}
}

// BenchmarkServeClassify measures the /v1/classify serve path through
// the full handler stack — mux dispatch, obs middleware, admission
// gate, response cache, JSON marshal. The warm case replays one hot
// query (a cache hit returns the stored bytes); the cold case rotates
// trace ids through a 1-entry cache so every request classifies and
// marshals afresh.
func BenchmarkServeClassify(b *testing.B) {
	s := benchScenario(b)
	// fleetOfOne serves a second build of the bench world (same Config,
	// so the same trace ids) the way routelabd does: registered as the
	// default scenario and resolved before the first request.
	fleetOfOne := func(cacheSize int) http.Handler {
		store := service.NewStore(service.StoreConfig{CacheSize: cacheSize})
		if err := store.Register(&spec.Expansion{Name: service.DefaultID, Config: s.Cfg}, "bench"); err != nil {
			b.Fatal(err)
		}
		if _, err := store.Get(context.Background(), service.DefaultID); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(store.Close)
		return service.NewFleet(store).Handler()
	}
	warm, cold := fleetOfOne(0), fleetOfOne(1)
	b.Run("warm", func(b *testing.B) {
		url := fmt.Sprintf("/v1/classify?trace=%d", s.Measurements[0].TraceID)
		rec := httptest.NewRecorder()
		warm.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("prime: status %d", rec.Code)
		}
		b.ResetTimer()
		defer measured(b)()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			warm.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		if len(s.Measurements) < 2 {
			b.Skip("need two measurements to defeat the cache")
		}
		b.ResetTimer()
		defer measured(b)()
		for i := 0; i < b.N; i++ {
			// Consecutive iterations use different trace ids, so the
			// 1-entry LRU never holds the one being asked for.
			trace := s.Measurements[i%len(s.Measurements)].TraceID
			rec := httptest.NewRecorder()
			cold.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/classify?trace=%d", trace), nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
}
