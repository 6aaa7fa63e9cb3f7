package main

import (
	"encoding/json"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.50, 50},
		{0.90, 90},
		{0.99, 100},
		{1.00, 100},
		{0.01, 10},
	}
	for _, tc := range cases {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(q=%g) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile(single) = %d, want 7", got)
	}
}

// loadSamples fabricates a small mixed run: two scenarios, two endpoint
// families, one failure, one clean shed, a hit/miss mix, and start
// offsets spanning two one-second buckets.
func loadSamples() []LoadSample {
	return []LoadSample{
		{Scenario: "alpha", Endpoint: "classify", StartNS: 0, LatencyNS: 100, Status: 200, Cache: "miss"},
		{Scenario: "alpha", Endpoint: "classify", StartNS: 2e8, LatencyNS: 50, Status: 200, Cache: "hit"},
		{Scenario: "beta", Endpoint: "classify", StartNS: 1.1e9, LatencyNS: 200, Status: 200, Cache: "miss"},
		{Scenario: "beta", Endpoint: "healthz", StartNS: 1.2e9, LatencyNS: 10, Status: 200},
		{Scenario: "alpha", Endpoint: "healthz", StartNS: 1.5e9, LatencyNS: 1000, Status: 500, Failed: true},
		{Scenario: "beta", Endpoint: "whatif", StartNS: 1.6e9, LatencyNS: 20, Status: 429},
	}
}

func TestBuildLoadReport(t *testing.T) {
	rep := BuildLoadReport("routeload -test", "http://x", []string{"beta", "alpha"}, 4, 2e9, loadSamples())
	if err := rep.Validate(); err != nil {
		t.Fatalf("built report invalid: %v", err)
	}
	if rep.Requests != 6 || rep.Errors != 1 || rep.Sheds != 1 {
		t.Errorf("requests/errors/sheds = %d/%d/%d, want 6/1/1", rep.Requests, rep.Errors, rep.Sheds)
	}
	if rep.ErrorRate != 1.0/6 || rep.ShedRate != 1.0/6 {
		t.Errorf("error/shed rate %g/%g, want 1/6 each", rep.ErrorRate, rep.ShedRate)
	}
	if rep.CacheHits != 1 || rep.CacheMisses != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 1/2", rep.CacheHits, rep.CacheMisses)
	}
	if rep.Throughput != 3 {
		t.Errorf("throughput %g req/s, want 3", rep.Throughput)
	}
	if rep.Latency.MaxNS != 1000 {
		t.Errorf("max latency %d, want 1000", rep.Latency.MaxNS)
	}
	// Scenario list is sorted regardless of input order, and the
	// breakdowns are published in sorted key order (maporder).
	if rep.Scenarios[0] != "alpha" || rep.Scenarios[1] != "beta" {
		t.Errorf("scenarios not sorted: %v", rep.Scenarios)
	}
	if len(rep.Endpoints) != 3 || rep.Endpoints[0].Endpoint != "classify" || rep.Endpoints[1].Endpoint != "healthz" || rep.Endpoints[2].Endpoint != "whatif" {
		t.Fatalf("endpoint breakdown wrong: %+v", rep.Endpoints)
	}
	if rep.Endpoints[0].Requests != 3 || rep.Endpoints[1].Errors != 1 || rep.Endpoints[2].Sheds != 1 {
		t.Errorf("endpoint counts wrong: %+v", rep.Endpoints)
	}
	if len(rep.PerScenario) != 2 || rep.PerScenario[0].Scenario != "alpha" || rep.PerScenario[0].Requests != 3 {
		t.Errorf("per-scenario breakdown wrong: %+v", rep.PerScenario)
	}
	if rep.PerScenario[1].Sheds != 1 {
		t.Errorf("beta sheds = %d, want 1", rep.PerScenario[1].Sheds)
	}
}

func TestBuildLoadReportBuckets(t *testing.T) {
	rep := BuildLoadReport("routeload -test", "http://x", []string{"alpha", "beta"}, 4, 2e9, loadSamples())
	if err := rep.Validate(); err != nil {
		t.Fatalf("bucketed report invalid: %v", err)
	}
	if rep.BucketNS != 1e9 || len(rep.Buckets) != 2 {
		t.Fatalf("bucket shape wrong: bucketNS %d, %d buckets", rep.BucketNS, len(rep.Buckets))
	}
	b0, b1 := rep.Buckets[0], rep.Buckets[1]
	if b0.StartNS != 0 || b0.EndNS != 1e9 || b1.StartNS != 1e9 || b1.EndNS != 2e9 {
		t.Errorf("bucket spans wrong: %+v %+v", b0, b1)
	}
	if b0.Requests != 2 || b0.Errors != 0 || b0.Sheds != 0 {
		t.Errorf("bucket 0 counts = %d/%d/%d, want 2/0/0", b0.Requests, b0.Errors, b0.Sheds)
	}
	if b1.Requests != 4 || b1.Errors != 1 || b1.Sheds != 1 {
		t.Errorf("bucket 1 counts = %d/%d/%d, want 4/1/1", b1.Requests, b1.Errors, b1.Sheds)
	}
	if b0.Latency.MaxNS != 100 || b1.Latency.MaxNS != 1000 {
		t.Errorf("bucket latency wrong: %+v %+v", b0.Latency, b1.Latency)
	}
	// An empty middle bucket is still emitted: the tiling is contiguous.
	sparse := []LoadSample{
		{Endpoint: "healthz", StartNS: 0, LatencyNS: 1, Status: 200},
		{Endpoint: "healthz", StartNS: 2.5e9, LatencyNS: 1, Status: 200},
	}
	rep = BuildLoadReport("c", "t", nil, 1, 3e9, sparse)
	if err := rep.Validate(); err != nil {
		t.Fatalf("sparse report invalid: %v", err)
	}
	if len(rep.Buckets) != 3 || rep.Buckets[1].Requests != 0 {
		t.Fatalf("sparse tiling wrong: %+v", rep.Buckets)
	}
}

// randomSamples draws a run of 1–200 samples that mixes endpoints,
// scenarios and fleet-level samples, successes, failures, clean and
// malformed 429s, cache headers, tied latencies, and start offsets over
// five seconds (a few before the run's start, some seconds empty).
func randomSamples(rng *rand.Rand) []LoadSample {
	out := make([]LoadSample, 1+rng.Intn(200))
	for i := range out {
		s := LoadSample{
			Scenario:  []string{"", "alpha", "beta", "gamma"}[rng.Intn(4)],
			Endpoint:  []string{"healthz", "classify", "as", "alternates", "experiments", "whatif"}[rng.Intn(6)],
			StartNS:   rng.Int63n(5e9) - 1e8,
			LatencyNS: rng.Int63n(60) * 1e6,
			Status:    []int{200, 200, 200, 429, 404, 500, 0}[rng.Intn(7)],
			Cache:     []string{"", "hit", "miss"}[rng.Intn(3)],
		}
		s.Failed = s.Status != 200 && (s.Status != 429 || rng.Intn(3) == 0)
		out[i] = s
	}
	return out
}

// recount is the report's counts taken the long way: each slice is a
// filter over every sample, counted on its own.
func recount(rep LoadReport, samples []LoadSample) LoadReport {
	type slice struct {
		requests, errors, sheds int64
		latency                 LoadLatency
	}
	count := func(keep func(LoadSample) bool) slice {
		var sl slice
		var ns []int64
		for _, s := range samples {
			if !keep(s) {
				continue
			}
			sl.requests++
			if s.Failed {
				sl.errors++
			} else if s.Status == 429 {
				sl.sheds++
			}
			ns = append(ns, s.LatencyNS)
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		if len(ns) > 0 {
			sl.latency = LoadLatency{percentile(ns, 0.5), percentile(ns, 0.9), percentile(ns, 0.99), ns[len(ns)-1]}
		}
		return sl
	}
	want := LoadReport{Schema: rep.Schema, Command: rep.Command, Target: rep.Target, GoVersion: rep.GoVersion,
		GOOS: rep.GOOS, GOARCH: rep.GOARCH, GOMAXPROCS: rep.GOMAXPROCS, Clients: rep.Clients,
		Scenarios: rep.Scenarios, WallNS: rep.WallNS, BucketNS: 1e9}
	all := count(func(LoadSample) bool { return true })
	want.Requests, want.Errors, want.Sheds, want.Latency = all.requests, all.errors, all.sheds, all.latency
	want.ErrorRate = float64(all.errors) / float64(all.requests)
	want.ShedRate = float64(all.sheds) / float64(all.requests)
	want.Throughput = float64(all.requests) / (float64(rep.WallNS) / 1e9)
	want.CacheHits = count(func(s LoadSample) bool { return s.Cache == "hit" }).requests
	want.CacheMisses = count(func(s LoadSample) bool { return s.Cache == "miss" }).requests
	if n := want.CacheHits + want.CacheMisses; n > 0 {
		want.CacheHitRate = float64(want.CacheHits) / float64(n)
	}
	endpoints := map[string]bool{}
	scenarios := map[string]bool{}
	var lastStart int64
	for _, s := range samples {
		endpoints[s.Endpoint] = true
		if s.Scenario != "" {
			scenarios[s.Scenario] = true
		}
		lastStart = max(lastStart, s.StartNS)
	}
	for _, name := range []string{"alternates", "as", "classify", "experiments", "healthz", "whatif"} {
		if endpoints[name] {
			sl := count(func(s LoadSample) bool { return s.Endpoint == name })
			want.Endpoints = append(want.Endpoints, LoadEndpoint{name, sl.requests, sl.errors, sl.sheds, sl.latency})
		}
	}
	for _, id := range []string{"alpha", "beta", "gamma"} {
		if scenarios[id] {
			sl := count(func(s LoadSample) bool { return s.Scenario == id })
			want.PerScenario = append(want.PerScenario, LoadScenario{id, sl.requests, sl.errors, sl.sheds})
		}
	}
	for start := int64(0); start <= lastStart; start += 1e9 {
		sl := count(func(s LoadSample) bool {
			return s.StartNS < start+1e9 && (s.StartNS >= start || start == 0)
		})
		want.Buckets = append(want.Buckets, LoadBucket{start, start + 1e9, sl.requests, sl.errors, sl.sheds, sl.latency})
	}
	return want
}

// Every slice of a report, the total, each endpoint, scenario and
// second, holds what a recount of its own samples gives, on 300
// randomized runs.
func TestBuildLoadReportMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for run := 0; run < 300; run++ {
		samples := randomSamples(rng)
		rep := BuildLoadReport("routeload -test", "http://x", []string{"gamma", "alpha", "beta"}, 3, 4e9, samples)
		if err := rep.Validate(); err != nil {
			t.Fatalf("run %d: report invalid: %v", run, err)
		}
		if want := recount(rep, samples); !reflect.DeepEqual(rep, want) {
			t.Fatalf("run %d: report\n %+v\nrecount\n %+v", run, rep, want)
		}
	}
}

// TestLoadSampleShed pins the clean-shed definition: 429 and not
// Failed. A malformed 429 (Failed set by the harness) is an error.
func TestLoadSampleShed(t *testing.T) {
	if !(LoadSample{Status: 429}).Shed() {
		t.Error("clean 429 not a shed")
	}
	if (LoadSample{Status: 429, Failed: true}).Shed() {
		t.Error("failed 429 counted as shed")
	}
	if (LoadSample{Status: 200}).Shed() {
		t.Error("200 counted as shed")
	}
}

func TestLoadReportValidateRejects(t *testing.T) {
	good := func() LoadReport {
		return BuildLoadReport("c", "t", []string{"a"}, 1, 2e9, loadSamples())
	}
	cases := []struct {
		name   string
		break_ func(*LoadReport)
	}{
		{"schema", func(r *LoadReport) { r.Schema = "routelab-load/v0" }},
		{"clients", func(r *LoadReport) { r.Clients = 0 }},
		{"requests", func(r *LoadReport) { r.Requests = 0 }},
		{"errors", func(r *LoadReport) { r.Errors = r.Requests + 1 }},
		{"error rate", func(r *LoadReport) { r.ErrorRate = 1.5 }},
		{"cache rate", func(r *LoadReport) { r.CacheHitRate = -0.1 }},
		{"cache counts", func(r *LoadReport) { r.CacheHits = r.Requests + 1 }},
		{"wall", func(r *LoadReport) { r.WallNS = 0 }},
		{"throughput", func(r *LoadReport) { r.Throughput = 0 }},
		{"percentile order", func(r *LoadReport) { r.Latency.P50NS = r.Latency.MaxNS + 1 }},
		{"no endpoints", func(r *LoadReport) { r.Endpoints = nil }},
		{"endpoint name", func(r *LoadReport) { r.Endpoints[0].Endpoint = "" }},
		{"request sum", func(r *LoadReport) { r.Endpoints[0].Requests++ }},
		{"error sum", func(r *LoadReport) { r.Endpoints[0].Errors++ }},
		{"sheds over requests", func(r *LoadReport) { r.Sheds = r.Requests + 1 }},
		{"sheds plus errors", func(r *LoadReport) { r.Sheds = r.Requests - r.Errors + 1 }},
		{"shed rate", func(r *LoadReport) { r.ShedRate = -0.1 }},
		{"shed sum", func(r *LoadReport) { r.Endpoints[0].Sheds++ }},
		{"buckets without width", func(r *LoadReport) { r.BucketNS = 0 }},
		{"width without buckets", func(r *LoadReport) { r.Buckets = nil }},
		{"bucket span", func(r *LoadReport) { r.Buckets[1].StartNS++ }},
		{"bucket request sum", func(r *LoadReport) { r.Buckets[0].Requests++ }},
		{"bucket error sum", func(r *LoadReport) { r.Buckets[0].Errors = r.Buckets[0].Requests + 1 }},
		{"bucket shed sum", func(r *LoadReport) { r.Buckets[0].Sheds++ }},
		{"bucket latency order", func(r *LoadReport) { r.Buckets[1].Latency.P50NS = r.Buckets[1].Latency.MaxNS + 1 }},
	}
	for _, tc := range cases {
		rep := good()
		tc.break_(&rep)
		if err := rep.Validate(); err == nil {
			t.Errorf("%s: broken report accepted", tc.name)
		}
	}
}

func TestLoadReportRoundTrip(t *testing.T) {
	rep := BuildLoadReport("routeload -test", "http://x", []string{"alpha"}, 2, 3e9, loadSamples())
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back LoadReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Errorf("round trip mismatch: %+v vs %+v", back, rep)
	}

	// An invalid report must not be writable.
	bad := rep
	bad.Schema = "nope"
	if err := bad.WriteFile(filepath.Join(t.TempDir(), "LOAD_routelab.json")); err == nil {
		t.Error("invalid report written")
	}
}

func TestLoadReportValidateMessage(t *testing.T) {
	rep := BuildLoadReport("c", "t", nil, 1, 1e9, loadSamples())
	rep.Schema = "bogus"
	err := rep.Validate()
	if err == nil || !strings.Contains(err.Error(), LoadSchema) {
		t.Errorf("schema error %v should name the expected schema", err)
	}
}
