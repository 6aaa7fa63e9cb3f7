package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// LoadSchema identifies the load-harness emission: routeload builds
// it, validates it and writes it.
const LoadSchema = "routelab-load/v1"

// LoadSample is one request's outcome as the harness observed it.
type LoadSample struct {
	Scenario  string // scenario id ("" for fleet-level endpoints)
	Endpoint  string // endpoint family: healthz, classify, ...
	StartNS   int64  // request start, as an offset from the run's start
	LatencyNS int64
	Status    int    // HTTP status (0 when the request itself failed)
	Cache     string // service.CacheHeader value: "hit", "miss", or ""
	Failed    bool   // transport error, bad status, or invalid envelope
}

// Shed reports whether the sample is a clean shed: the server refused
// with 429 and the harness verified the refusal's shape (overloaded
// envelope + Retry-After), so Failed stayed false. A malformed 429 is
// an error, not a shed.
func (s LoadSample) Shed() bool { return s.Status == 429 && !s.Failed }

// LoadLatency is a latency distribution in nanoseconds.
type LoadLatency struct {
	P50NS int64 `json:"p50_ns"`
	P90NS int64 `json:"p90_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`
}

// LoadEndpoint is one endpoint family's slice of the run.
type LoadEndpoint struct {
	Endpoint string      `json:"endpoint"`
	Requests int64       `json:"requests"`
	Errors   int64       `json:"errors"`
	Sheds    int64       `json:"sheds,omitempty"`
	Latency  LoadLatency `json:"latency"`
}

// LoadScenario is one scenario's slice of the run.
type LoadScenario struct {
	Scenario string `json:"scenario"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	Sheds    int64  `json:"sheds,omitempty"`
}

// LoadBucket is one time slice of the run: every sample whose start
// fell in [StartNS, EndNS) relative to the run's start, with its own
// latency distribution. Buckets turn the end-of-run percentiles into a
// histogram over time, which is what exposes warm-up cliffs, build
// stalls, and shed storms that a whole-run p99 averages away.
type LoadBucket struct {
	StartNS  int64       `json:"start_ns"`
	EndNS    int64       `json:"end_ns"`
	Requests int64       `json:"requests"`
	Errors   int64       `json:"errors"`
	Sheds    int64       `json:"sheds"`
	Latency  LoadLatency `json:"latency"`
}

// LoadBucketNS is the width of a report's time buckets: one second.
const LoadBucketNS = int64(time.Second)

// LoadReport is the routelab-load/v1 emission: the whole run's
// throughput, latency distribution, error and cache-hit rates, plus
// per-endpoint, per-scenario and per-second breakdowns.
type LoadReport struct {
	Schema     string `json:"schema"`
	Command    string `json:"command"`
	Target     string `json:"target"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Clients      int         `json:"clients"`
	Scenarios    []string    `json:"scenarios"`
	WallNS       int64       `json:"wall_ns"`
	Requests     int64       `json:"requests"`
	Errors       int64       `json:"errors"`
	ErrorRate    float64     `json:"error_rate"`
	Sheds        int64       `json:"sheds"`
	ShedRate     float64     `json:"shed_rate"`
	Throughput   float64     `json:"throughput_rps"`
	Latency      LoadLatency `json:"latency"`
	CacheHits    int64       `json:"cache_hits"`
	CacheMisses  int64       `json:"cache_misses"`
	CacheHitRate float64     `json:"cache_hit_rate"`

	// BucketNS is always LoadBucketNS. Buckets tile the run
	// contiguously from its start through the last sample's bucket
	// (empty slices included, so bucket i always covers
	// [i*BucketNS, (i+1)*BucketNS)).
	BucketNS int64        `json:"bucket_ns,omitempty"`
	Buckets  []LoadBucket `json:"buckets,omitempty"`

	Endpoints   []LoadEndpoint `json:"endpoints"`
	PerScenario []LoadScenario `json:"per_scenario"`
}

// percentile returns the q-quantile (0 < q <= 1) of sorted latencies
// by the nearest-rank method; 0 for an empty slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// A tally is one slice of a run: the requests, errors, clean sheds and
// latencies of the samples added to it. The run's total, each
// endpoint, each scenario and each bucket is one.
type tally struct {
	requests, errors, sheds int64
	latencies               []int64
}

func (t *tally) add(s LoadSample) {
	t.requests++
	if s.Failed {
		t.errors++
	}
	if s.Shed() {
		t.sheds++
	}
	t.latencies = append(t.latencies, s.LatencyNS)
}

// latency summarizes the slice's latencies, sorting them in place.
func (t *tally) latency() LoadLatency {
	if len(t.latencies) == 0 {
		return LoadLatency{}
	}
	slices.Sort(t.latencies)
	return LoadLatency{
		P50NS: percentile(t.latencies, 0.50),
		P90NS: percentile(t.latencies, 0.90),
		P99NS: percentile(t.latencies, 0.99),
		MaxNS: t.latencies[len(t.latencies)-1],
	}
}

// tallyOf returns the tally filed under k, making it on first use.
func tallyOf(m map[string]*tally, k string) *tally {
	t := m[k]
	if t == nil {
		t = &tally{}
		m[k] = t
	}
	return t
}

// sortedKeys returns m's keys in order (maporder: map iteration order
// is randomized, so breakdowns are published in key order).
func sortedKeys(m map[string]*tally) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// BuildLoadReport aggregates a run's samples into the versioned
// emission. It is a pure function of its inputs (the harness measures
// wall time and passes it in), so the same samples always aggregate to
// the same report. Each sample is added to the run's total, to its
// endpoint, to its scenario (fleet-level samples have none) and to the
// one-second bucket its StartNS falls in (a negative StartNS falls in
// the first).
func BuildLoadReport(command, target string, scenarios []string, clients int, wallNS int64, samples []LoadSample) LoadReport {
	rep := LoadReport{
		Schema:     LoadSchema,
		Command:    command,
		Target:     target,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clients,
		Scenarios:  append([]string(nil), scenarios...),
		WallNS:     wallNS,
		BucketNS:   LoadBucketNS,
	}
	sort.Strings(rep.Scenarios)

	var total tally
	byEndpoint := map[string]*tally{}
	byScenario := map[string]*tally{}
	var buckets []tally
	for _, s := range samples {
		i := max(s.StartNS, 0) / LoadBucketNS
		for int64(len(buckets)) <= i {
			buckets = append(buckets, tally{})
		}
		total.add(s)
		tallyOf(byEndpoint, s.Endpoint).add(s)
		if s.Scenario != "" {
			tallyOf(byScenario, s.Scenario).add(s)
		}
		buckets[i].add(s)
		switch s.Cache {
		case "hit":
			rep.CacheHits++
		case "miss":
			rep.CacheMisses++
		}
	}

	rep.Requests, rep.Errors, rep.Sheds = total.requests, total.errors, total.sheds
	rep.Latency = total.latency()
	if rep.Requests > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Requests)
		rep.ShedRate = float64(rep.Sheds) / float64(rep.Requests)
	}
	if counted := rep.CacheHits + rep.CacheMisses; counted > 0 {
		rep.CacheHitRate = float64(rep.CacheHits) / float64(counted)
	}
	if wallNS > 0 {
		rep.Throughput = float64(rep.Requests) / (float64(wallNS) / 1e9)
	}
	for _, name := range sortedKeys(byEndpoint) {
		t := byEndpoint[name]
		rep.Endpoints = append(rep.Endpoints, LoadEndpoint{Endpoint: name,
			Requests: t.requests, Errors: t.errors, Sheds: t.sheds, Latency: t.latency()})
	}
	for _, id := range sortedKeys(byScenario) {
		t := byScenario[id]
		rep.PerScenario = append(rep.PerScenario, LoadScenario{Scenario: id,
			Requests: t.requests, Errors: t.errors, Sheds: t.sheds})
	}
	for i := range buckets {
		t := &buckets[i]
		start := int64(i) * LoadBucketNS
		rep.Buckets = append(rep.Buckets, LoadBucket{StartNS: start, EndNS: start + LoadBucketNS,
			Requests: t.requests, Errors: t.errors, Sheds: t.sheds, Latency: t.latency()})
	}
	return rep
}

// counts is the part of a report slice that Validate reconciles.
type counts struct{ requests, errors, sheds int64 }

// check is Validate's one check of a slice: counts in range, errors
// and sheds disjoint within requests (a clean shed is a verified 429,
// not Failed; a malformed one counts as an error), and percentiles
// ordered.
func (c counts) check(name string, l LoadLatency) error {
	if c.requests < 0 || c.errors < 0 || c.sheds < 0 || c.errors+c.sheds > c.requests {
		return fmt.Errorf("%s: errors %d + sheds %d outside [0, requests %d]", name, c.errors, c.sheds, c.requests)
	}
	if l.P50NS < 0 || l.P50NS > l.P90NS || l.P90NS > l.P99NS || l.P99NS > l.MaxNS {
		return fmt.Errorf("%s: percentiles not ordered: p50 %d, p90 %d, p99 %d, max %d",
			name, l.P50NS, l.P90NS, l.P99NS, l.MaxNS)
	}
	return nil
}

// reconcile checks that parts, which split the run, sum to total.
func reconcile(what string, total counts, parts []counts) error {
	var sum counts
	for _, c := range parts {
		sum.requests += c.requests
		sum.errors += c.errors
		sum.sheds += c.sheds
	}
	if sum != total {
		return fmt.Errorf("%s sums (req %d, err %d, shed %d) != totals (req %d, err %d, shed %d)",
			what, sum.requests, sum.errors, sum.sheds, total.requests, total.errors, total.sheds)
	}
	return nil
}

// Validate checks the emission: schema tag, rates in range, every slice
// (the run, each endpoint, scenario and bucket) through one check, the
// endpoints and the buckets each reconciling with the run's counts, and
// the buckets tiling the run by the second, so an aggregation bug fails
// the run instead of reaching a file.
func (r LoadReport) Validate() error {
	if r.Schema != LoadSchema {
		return fmt.Errorf("schema %q, want %q", r.Schema, LoadSchema)
	}
	if r.Clients < 1 {
		return fmt.Errorf("clients %d, want >= 1", r.Clients)
	}
	if r.Requests < 1 {
		return fmt.Errorf("requests %d, want >= 1", r.Requests)
	}
	total := counts{r.Requests, r.Errors, r.Sheds}
	if err := total.check("run", r.Latency); err != nil {
		return err
	}
	if r.ErrorRate < 0 || r.ErrorRate > 1 {
		return fmt.Errorf("error_rate %g outside [0, 1]", r.ErrorRate)
	}
	if r.ShedRate < 0 || r.ShedRate > 1 {
		return fmt.Errorf("shed_rate %g outside [0, 1]", r.ShedRate)
	}
	if r.CacheHitRate < 0 || r.CacheHitRate > 1 {
		return fmt.Errorf("cache_hit_rate %g outside [0, 1]", r.CacheHitRate)
	}
	if r.CacheHits+r.CacheMisses > r.Requests {
		return fmt.Errorf("cache hits+misses %d exceed requests %d", r.CacheHits+r.CacheMisses, r.Requests)
	}
	if r.WallNS <= 0 {
		return fmt.Errorf("wall_ns %d, want > 0", r.WallNS)
	}
	if r.Throughput <= 0 {
		return fmt.Errorf("throughput_rps %g, want > 0", r.Throughput)
	}
	if len(r.Endpoints) == 0 {
		return fmt.Errorf("no endpoint breakdown")
	}
	parts := make([]counts, len(r.Endpoints))
	for i, ep := range r.Endpoints {
		if ep.Endpoint == "" {
			return fmt.Errorf("endpoint with empty name")
		}
		parts[i] = counts{ep.Requests, ep.Errors, ep.Sheds}
		if err := parts[i].check("endpoint "+ep.Endpoint, ep.Latency); err != nil {
			return err
		}
	}
	if err := reconcile("endpoint", total, parts); err != nil {
		return err
	}
	for _, sc := range r.PerScenario {
		if err := (counts{sc.Requests, sc.Errors, sc.Sheds}).check("scenario "+sc.Scenario, LoadLatency{}); err != nil {
			return err
		}
	}
	if r.BucketNS != LoadBucketNS {
		return fmt.Errorf("bucket_ns %d, want %d", r.BucketNS, LoadBucketNS)
	}
	parts = make([]counts, len(r.Buckets))
	for i, b := range r.Buckets {
		if start := int64(i) * LoadBucketNS; b.StartNS != start || b.EndNS != start+LoadBucketNS {
			return fmt.Errorf("bucket %d spans [%d, %d), want [%d, %d)", i, b.StartNS, b.EndNS, start, start+LoadBucketNS)
		}
		parts[i] = counts{b.Requests, b.Errors, b.Sheds}
		if err := parts[i].check(fmt.Sprintf("bucket %d", i), b.Latency); err != nil {
			return err
		}
	}
	return reconcile("bucket", total, parts)
}

// WriteFile validates the report and writes it as indented JSON.
func (r LoadReport) WriteFile(path string) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("load report invalid: %w", err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
