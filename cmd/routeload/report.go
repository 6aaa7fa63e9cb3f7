package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
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

// LoadReport is the routelab-load/v1 emission: the whole run's
// throughput, latency distribution, error and cache-hit rates, plus
// per-endpoint and per-scenario breakdowns.
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

	// BucketNS is the time-bucket width; Buckets tile [0, WallNS)
	// contiguously from the run's start (empty slices included, so
	// bucket i always covers [i*BucketNS, (i+1)*BucketNS)). Both are
	// omitted when the harness ran without bucketing.
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

// latencyOf summarizes a latency sample set.
func latencyOf(ns []int64) LoadLatency {
	if len(ns) == 0 {
		return LoadLatency{}
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return LoadLatency{
		P50NS: percentile(sorted, 0.50),
		P90NS: percentile(sorted, 0.90),
		P99NS: percentile(sorted, 0.99),
		MaxNS: sorted[len(sorted)-1],
	}
}

// BuildLoadReport aggregates a run's samples into the versioned
// emission. It is a pure function of its inputs (the harness measures
// wall time and passes it in), so the same samples always aggregate to
// the same report. bucketNS > 0 additionally tiles the run into
// contiguous time buckets by each sample's StartNS; <= 0 omits
// buckets (the pre-histogram report shape).
func BuildLoadReport(command, target string, scenarios []string, clients int, wallNS, bucketNS int64, samples []LoadSample) LoadReport {
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
	}
	sort.Strings(rep.Scenarios)

	all := make([]int64, 0, len(samples))
	byEndpoint := make(map[string][]LoadSample)
	byScenario := make(map[string][]LoadSample)
	for _, s := range samples {
		rep.Requests++
		if s.Failed {
			rep.Errors++
		}
		if s.Shed() {
			rep.Sheds++
		}
		switch s.Cache {
		case "hit":
			rep.CacheHits++
		case "miss":
			rep.CacheMisses++
		}
		all = append(all, s.LatencyNS)
		byEndpoint[s.Endpoint] = append(byEndpoint[s.Endpoint], s)
		if s.Scenario != "" {
			byScenario[s.Scenario] = append(byScenario[s.Scenario], s)
		}
	}
	rep.Latency = latencyOf(all)
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

	// Collect map keys into locals and sort before publishing
	// (maporder: iteration order is randomized).
	endpoints := make([]string, 0, len(byEndpoint))
	for name := range byEndpoint {
		endpoints = append(endpoints, name)
	}
	sort.Strings(endpoints)
	for _, name := range endpoints {
		ss := byEndpoint[name]
		ep := LoadEndpoint{Endpoint: name}
		ns := make([]int64, 0, len(ss))
		for _, s := range ss {
			ep.Requests++
			if s.Failed {
				ep.Errors++
			}
			if s.Shed() {
				ep.Sheds++
			}
			ns = append(ns, s.LatencyNS)
		}
		ep.Latency = latencyOf(ns)
		rep.Endpoints = append(rep.Endpoints, ep)
	}
	scenarioIDs := make([]string, 0, len(byScenario))
	for id := range byScenario {
		scenarioIDs = append(scenarioIDs, id)
	}
	sort.Strings(scenarioIDs)
	for _, id := range scenarioIDs {
		sc := LoadScenario{Scenario: id}
		for _, s := range byScenario[id] {
			sc.Requests++
			if s.Failed {
				sc.Errors++
			}
			if s.Shed() {
				sc.Sheds++
			}
		}
		rep.PerScenario = append(rep.PerScenario, sc)
	}
	if bucketNS > 0 {
		rep.BucketNS = bucketNS
		rep.Buckets = bucketize(samples, bucketNS)
	}
	return rep
}

// bucketize tiles the samples into contiguous bucketNS-wide time
// slices by StartNS. Every bucket from 0 through the last occupied one
// is emitted (empty included) so consumers can index by time without
// gap handling; a negative StartNS clamps into the first bucket.
func bucketize(samples []LoadSample, bucketNS int64) []LoadBucket {
	if len(samples) == 0 {
		return nil
	}
	byBucket := make(map[int][]LoadSample)
	last := 0
	for _, s := range samples {
		i := 0
		if s.StartNS > 0 {
			i = int(s.StartNS / bucketNS)
		}
		if i > last {
			last = i
		}
		byBucket[i] = append(byBucket[i], s)
	}
	out := make([]LoadBucket, last+1)
	for i := range out {
		b := LoadBucket{StartNS: int64(i) * bucketNS, EndNS: int64(i+1) * bucketNS}
		ns := make([]int64, 0, len(byBucket[i]))
		for _, s := range byBucket[i] {
			b.Requests++
			if s.Failed {
				b.Errors++
			}
			if s.Shed() {
				b.Sheds++
			}
			ns = append(ns, s.LatencyNS)
		}
		b.Latency = latencyOf(ns)
		out[i] = b
	}
	return out
}

// Validate checks the emission: schema tag and shape invariants (counts
// reconcile across breakdowns, rates in range, percentiles ordered), so
// an aggregation bug fails the run instead of reaching a file.
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
	if r.Errors < 0 || r.Errors > r.Requests {
		return fmt.Errorf("errors %d outside [0, %d]", r.Errors, r.Requests)
	}
	if r.ErrorRate < 0 || r.ErrorRate > 1 {
		return fmt.Errorf("error_rate %g outside [0, 1]", r.ErrorRate)
	}
	// Sheds and errors are disjoint by construction: a clean shed is a
	// verified 429 (not Failed), a malformed one counts as an error.
	if r.Sheds < 0 || r.Sheds+r.Errors > r.Requests {
		return fmt.Errorf("sheds %d + errors %d exceed requests %d", r.Sheds, r.Errors, r.Requests)
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
	if err := r.Latency.validate("latency"); err != nil {
		return err
	}
	if len(r.Endpoints) == 0 {
		return fmt.Errorf("no endpoint breakdown")
	}
	var reqSum, errSum, shedSum int64
	for _, ep := range r.Endpoints {
		if ep.Endpoint == "" {
			return fmt.Errorf("endpoint with empty name")
		}
		if err := ep.Latency.validate("endpoint " + ep.Endpoint); err != nil {
			return err
		}
		reqSum += ep.Requests
		errSum += ep.Errors
		shedSum += ep.Sheds
	}
	if reqSum != r.Requests {
		return fmt.Errorf("endpoint requests sum %d != total %d", reqSum, r.Requests)
	}
	if errSum != r.Errors {
		return fmt.Errorf("endpoint errors sum %d != total %d", errSum, r.Errors)
	}
	if shedSum != r.Sheds {
		return fmt.Errorf("endpoint sheds sum %d != total %d", shedSum, r.Sheds)
	}
	return r.validateBuckets()
}

// validateBuckets checks the time-bucket histogram: contiguous tiling
// from 0 at BucketNS width, per-bucket counts in range, and bucket
// sums reconciling exactly with the run totals (every sample lands in
// exactly one bucket).
func (r LoadReport) validateBuckets() error {
	if len(r.Buckets) == 0 {
		if r.BucketNS != 0 {
			return fmt.Errorf("bucket_ns %d with no buckets", r.BucketNS)
		}
		return nil
	}
	if r.BucketNS <= 0 {
		return fmt.Errorf("buckets present but bucket_ns %d", r.BucketNS)
	}
	var reqSum, errSum, shedSum int64
	for i, b := range r.Buckets {
		wantStart := int64(i) * r.BucketNS
		if b.StartNS != wantStart || b.EndNS != wantStart+r.BucketNS {
			return fmt.Errorf("bucket %d spans [%d, %d), want [%d, %d)",
				i, b.StartNS, b.EndNS, wantStart, wantStart+r.BucketNS)
		}
		if b.Requests < 0 || b.Errors < 0 || b.Sheds < 0 || b.Errors+b.Sheds > b.Requests {
			return fmt.Errorf("bucket %d: errors %d + sheds %d exceed requests %d",
				i, b.Errors, b.Sheds, b.Requests)
		}
		if err := b.Latency.validate(fmt.Sprintf("bucket %d", i)); err != nil {
			return err
		}
		reqSum += b.Requests
		errSum += b.Errors
		shedSum += b.Sheds
	}
	if reqSum != r.Requests || errSum != r.Errors || shedSum != r.Sheds {
		return fmt.Errorf("bucket sums (req %d, err %d, shed %d) != totals (req %d, err %d, shed %d)",
			reqSum, errSum, shedSum, r.Requests, r.Errors, r.Sheds)
	}
	return nil
}

func (l LoadLatency) validate(name string) error {
	if l.P50NS < 0 || l.P50NS > l.P90NS || l.P90NS > l.P99NS || l.P99NS > l.MaxNS {
		return fmt.Errorf("%s: percentiles not ordered: p50 %d, p90 %d, p99 %d, max %d",
			name, l.P50NS, l.P90NS, l.P99NS, l.MaxNS)
	}
	return nil
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
