// Command routeload drives a running routelabd fleet with N concurrent
// clients over a mixed scenario/endpoint schedule, builds a
// routelab-load/v1 report (throughput, p50/p90/p99 latency, time-
// bucketed histograms, error/shed/cache rates, per-endpoint and
// per-scenario breakdowns), writes it, and gates on it: one process
// measures, validates and decides. It exits 1 when a gate fails — and a
// bare run gates on zero errors — so a shell or CI step needs nothing
// after it.
//
// Usage:
//
//	routeload [flags]
//
// Flags:
//
//	-addr ADDR       routelabd address (default localhost:8080)
//	-scenarios A,B   scenario ids to drive (default: every id the fleet
//	                 lists — beware, that builds every registered world)
//	-clients N       concurrent clients (default 8; the transport keeps
//	                 one warm connection per client)
//	-requests N      total request budget across all clients (default
//	                 200)
//	-bucket D        time-bucket width for the latency histogram
//	                 (default 1s; 0 disables bucketing)
//	-spread N        vary the experiments endpoint's seed over N
//	                 distinct values (0 = off). Concurrent requests to
//	                 one URL coalesce server-side and coalesced waiters
//	                 never shed; saturation legs set -spread so the
//	                 schedule carries distinct cache keys and actually
//	                 pressures the admission gate
//	-cold A,B        scenario ids to drive WITHOUT warmup: only a
//	                 healthz target each, so the first touch triggers
//	                 the (slow) build during the measured run. With
//	                 three or more cold ids and tight build gates the
//	                 overflow must shed — the deterministic leg of the
//	                 saturation smoke
//	-timeout D       per-request client timeout (default 5m; first
//	                 requests wait on scenario builds)
//	-out PATH        write the routelab-load/v1 emission here
//	                 (default LOAD_routelab.json; "" skips the file)
//
// Gates, evaluated on the report after it is written (the emission
// survives a failed gate, so CI can archive the evidence):
//
//	-max-error-rate P  allowed error rate in percent (default 0, so
//	                 always on): the fleet must serve the schedule with
//	                 zero transport errors, bad statuses, or invalid
//	                 envelopes. Clean sheds (verified 429s) are NOT
//	                 errors; a saturation leg can shed heavily and
//	                 still pass this gate
//	-max-shed-rate P allowed shed rate in percent (default 100). The
//	                 plain load-smoke leg runs 0 — an unsaturated fleet
//	                 must never shed
//	-min-sheds N     shed-count floor (default 0 = off). The saturation
//	                 leg runs 1 — deliberately overfilled gates must
//	                 actually shed, or the overload protection silently
//	                 stopped engaging
//	-max-p99 D       whole-run p99 tripwire (default 0 = off). CI uses
//	                 a deliberately lax cross-machine value
//	                 (catastrophic serialization or a build on the hot
//	                 path), not a latency SLO: one run's timings on a
//	                 shared runner catch nothing finer
//
// The schedule is deterministic: request j targets urls[j mod len] and
// walks the endpoint mix in order, jobs handed to clients in order.
// Every response body is validated against routelab-api/v1; a
// transport error, an unexpected status, or an invalid envelope counts
// as an error in the report. A 429 whose envelope carries the
// "overloaded" code AND a Retry-After header is a CLEAN SHED — counted
// separately, not an error — which is how the saturation smoke
// distinguishes deliberate load shedding from breakage.
//
// Warmup (one healthz per scenario to trigger the build, plus probe
// requests to discover a live trace id and AS) happens before the
// clock starts; the report measures steady-state serving only. Timed
// loops and throughput comparisons are the ledger's job (bench/).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"routelab/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:8080", "routelabd address")
		scenarios = flag.String("scenarios", "", "comma-separated scenario ids (default: all registered)")
		clients   = flag.Int("clients", 8, "concurrent clients")
		requests  = flag.Int("requests", 200, "total request budget")
		bucket    = flag.Duration("bucket", time.Second, "time-bucket width for the latency histogram (0 = no buckets)")
		spread    = flag.Int("spread", 0, "vary the experiments endpoint's seed over N distinct values (defeats response-cache coalescing; <=1 = off)")
		cold      = flag.String("cold", "", "comma-separated scenario ids to drive WITHOUT warmup (healthz only; the first touch triggers the build)")
		timeout   = flag.Duration("timeout", 5*time.Minute, "per-request client timeout")
		out       = flag.String("out", "LOAD_routelab.json", "write the routelab-load/v1 emission here (empty = skip)")
		g         gates
	)
	flag.Float64Var(&g.maxErrorRate, "max-error-rate", 0, "allowed error rate, in percent (clean sheds excluded)")
	flag.Float64Var(&g.maxShedRate, "max-shed-rate", 100, "allowed shed rate, in percent")
	flag.Int64Var(&g.minSheds, "min-sheds", 0, "shed-count floor (0 = no gate; saturation legs use >= 1)")
	flag.DurationVar(&g.maxP99, "max-p99", 0, "p99 latency tripwire (0 = no gate; keep it lax — cross-machine timings only catch blowups)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "routeload: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *clients < 1 || *requests < 1 {
		fmt.Fprintln(os.Stderr, "routeload: -clients and -requests must be >= 1")
		os.Exit(2)
	}

	base := "http://" + *addr
	// Clients must not churn sockets: size the idle pool to the client
	// count so every client keeps one warm connection instead of racing
	// the default (2 per host) and paying a TCP handshake per request.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = *clients
	transport.MaxIdleConnsPerHost = *clients
	client := &http.Client{Timeout: *timeout, Transport: transport}

	ids := splitIDs(*scenarios)
	if len(ids) == 0 {
		var err error
		ids, err = discoverScenarios(client, base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "routeload:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "routeload: driving %d scenario(s) %v with %d clients, %d requests\n",
		len(ids), ids, *clients, *requests)

	// Warmup: build every scenario and discover per-scenario request
	// parameters before the clock starts.
	var urls []target
	for _, id := range ids {
		ts, err := warmup(client, base, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "routeload: warmup %s: %v\n", id, err)
			os.Exit(1)
		}
		urls = append(urls, ts...)
	}
	// Cold scenarios skip warmup on purpose: their first healthz IS the
	// load. Several cold ids touched concurrently pressure the build
	// gate — with a tight -max-queued-builds the overflow surfaces as
	// clean 429s, which is how the saturation smoke forces build
	// shedding through the public API. Builds run ~seconds while
	// requests arrive in milliseconds, so the pressure is machine-
	// independent (unlike request-gate contention, which needs computes
	// long enough to overlap).
	for _, id := range splitIDs(*cold) {
		ids = append(ids, id)
		urls = append(urls, target{scenario: id, endpoint: "healthz",
			url: base + "/v1/scenarios/" + id + "/healthz"})
	}

	samples, wallNS := run(client, urls, *clients, *spread, *requests)

	rep := BuildLoadReport(
		"routeload "+strings.Join(os.Args[1:], " "),
		base, ids, *clients, wallNS, int64(*bucket), samples)
	printSummary(os.Stdout, rep)
	// The emission goes out before the gates decide, so a failed gate
	// leaves its evidence behind.
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, "routeload:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "routeload: emission written to %s\n", *out)
	}
	if bad := evalGates(rep, g); len(bad) > 0 {
		for _, msg := range bad {
			fmt.Fprintln(os.Stderr, "routeload:", msg)
		}
		os.Exit(1)
	}
	fmt.Printf("gates: ok (error rate <= %.2f%%, shed rate <= %.2f%%, shed floor %d, p99 tripwire %v)\n",
		g.maxErrorRate, g.maxShedRate, g.minSheds, g.maxP99)
}

// gates carries every threshold so the evaluation is a pure function
// of (report, gates) — the part CI trusts, and the part the tests pin.
type gates struct {
	maxErrorRate float64       // percent; always on
	maxShedRate  float64       // percent; always on
	minSheds     int64         // 0 = no gate
	maxP99       time.Duration // 0 = no gate
}

// evalGates returns one violation message per failed gate, empty when
// the report passes. Messages are complete sentences suitable for CI
// logs; the caller decides where they go.
func evalGates(rep LoadReport, g gates) []string {
	var bad []string
	if rate := rep.ErrorRate * 100; rate > g.maxErrorRate {
		bad = append(bad, fmt.Sprintf("error rate %.2f%% EXCEEDS limit %.2f%% (%d/%d requests failed)",
			rate, g.maxErrorRate, rep.Errors, rep.Requests))
	}
	if rate := rep.ShedRate * 100; rate > g.maxShedRate {
		bad = append(bad, fmt.Sprintf("shed rate %.2f%% EXCEEDS limit %.2f%% (%d/%d requests shed)",
			rate, g.maxShedRate, rep.Sheds, rep.Requests))
	}
	if g.minSheds > 0 && rep.Sheds < g.minSheds {
		bad = append(bad, fmt.Sprintf("sheds %d BELOW floor %d — overload protection never engaged",
			rep.Sheds, g.minSheds))
	}
	if g.maxP99 > 0 && rep.Latency.P99NS > int64(g.maxP99) {
		bad = append(bad, fmt.Sprintf("p99 latency %v EXCEEDS tripwire %v",
			time.Duration(rep.Latency.P99NS).Round(time.Millisecond), g.maxP99))
	}
	return bad
}

func splitIDs(s string) []string {
	var out []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, id)
		}
	}
	return out
}

// target is one schedulable request: which scenario it counts against
// and which endpoint family it exercises. A non-empty body makes the
// request a POST (the what-if leg); method defaults to GET.
type target struct {
	scenario string
	endpoint string
	url      string
	body     string
	// seeded marks a target whose URL accepts a ?seed= override (the
	// experiments endpoint). With -spread, at() rewrites the seed per
	// schedule position so concurrent requests stop sharing a cache key.
	seeded bool
}

// at materializes the target for schedule position j: with spread > 1
// a seeded target gets a position-derived seed, so the request mix
// stays deterministic (same j -> same URL) while defeating same-key
// coalescing in the server's response cache. Saturation legs need this:
// coalesced waiters deliberately never shed, so a fixed URL set can
// absorb any client count without ever pressuring the admission gate.
func (t target) at(j, spread int) target {
	if spread > 1 && t.seeded {
		t.url = fmt.Sprintf("%s?seed=%d", t.url, j%spread)
	}
	return t
}

// discoverScenarios asks the fleet for its registered ids.
func discoverScenarios(client *http.Client, base string) ([]string, error) {
	resp, err := client.Get(base + "/v1/scenarios")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/scenarios: status %d (is routelabd running with -scenario-dir?)", resp.StatusCode)
	}
	env, err := service.ReadEnvelope(resp.Body)
	if err != nil {
		return nil, err
	}
	var data service.ScenariosData
	if err := unmarshalData(env, "scenarios", &data); err != nil {
		return nil, err
	}
	if len(data.Scenarios) == 0 {
		return nil, fmt.Errorf("fleet has no registered scenarios")
	}
	ids := make([]string, 0, len(data.Scenarios))
	for _, in := range data.Scenarios {
		ids = append(ids, in.ID)
	}
	return ids, nil
}

// warmup builds scenario id (first touch) and assembles its endpoint
// mix: a live trace id probed the way scripts/service_smoke.sh does,
// and an AS taken from that trace's first routing decision.
func warmup(client *http.Client, base, id string) ([]target, error) {
	prefix := base + "/v1/scenarios/" + id
	if _, _, err := fetch(client, prefix+"/healthz"); err != nil {
		return nil, err
	}
	var classifyURL string
	var classify service.ClassifyData
	for t := 0; t < 200; t++ {
		u := fmt.Sprintf("%s/classify?trace=%d", prefix, t)
		resp, err := client.Get(u)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			continue
		}
		env, err := service.ReadEnvelope(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if err := unmarshalData(env, "classify", &classify); err != nil {
			return nil, err
		}
		classifyURL = u
		break
	}
	if classifyURL == "" || len(classify.Decisions) == 0 {
		return nil, fmt.Errorf("no usable trace found in ids 0..199")
	}
	as := strings.TrimPrefix(classify.Decisions[0].At, "AS")
	// The what-if leg poisons the discovered AS: a POST body that is
	// valid on any scenario (the AS is live in this world by
	// construction) and deterministic per scenario.
	whatifDoc := fmt.Sprintf(`{"schema":%q,"deltas":[{"kind":"poison","poisoned":["AS%s"]},{"kind":"prepend","prepend":3},{"kind":"withdraw"}]}`,
		service.WhatIfSchema, as)
	return []target{
		{scenario: id, endpoint: "healthz", url: prefix + "/healthz"},
		{scenario: id, endpoint: "classify", url: classifyURL},
		{scenario: id, endpoint: "as", url: prefix + "/as/" + as},
		{scenario: id, endpoint: "alternates", url: prefix + "/alternates?target=" + as},
		// figure1 (the replication centerpiece) is also the schedule's
		// one heavyweight compute: saturation legs rely on it holding
		// the admission gate long enough for a real queue to form even
		// on single-core runners, where sub-millisecond computes never
		// overlap and the gate would otherwise always look idle.
		{scenario: id, endpoint: "experiments", url: prefix + "/experiments/figure1", seeded: true},
		{scenario: id, endpoint: "whatif", url: prefix + "/whatif", body: whatifDoc},
	}, nil
}

func unmarshalData(env service.Envelope, kind string, v any) error {
	if env.Kind != kind {
		return fmt.Errorf("envelope kind %q, want %q", env.Kind, kind)
	}
	return json.Unmarshal(env.Data, v)
}

// fetch issues one GET and validates the envelope; returns the status
// and the cache header.
func fetch(client *http.Client, url string) (status int, cacheHdr string, err error) {
	status, cacheHdr, _, err = do(client, target{url: url})
	return status, cacheHdr, err
}

// do issues one scheduled request — GET, or POST when the target
// carries a body — and validates the response envelope. shed reports a
// clean shed: status 429 whose envelope carries the "overloaded" code
// and whose response advertises Retry-After. A 429 without both is NOT
// a shed — it stays an error, so a server that refuses without telling
// clients when to come back fails the harness.
func do(client *http.Client, t target) (status int, cacheHdr string, shed bool, err error) {
	var resp *http.Response
	if t.body != "" {
		resp, err = client.Post(t.url, "application/json", strings.NewReader(t.body))
	} else {
		resp, err = client.Get(t.url)
	}
	if err != nil {
		return 0, "", false, err
	}
	defer resp.Body.Close()
	cacheHdr = resp.Header.Get(service.CacheHeader)
	env, err := service.ReadEnvelope(resp.Body)
	if err != nil {
		return resp.StatusCode, cacheHdr, false, fmt.Errorf("%s: %w", t.url, err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		var ed service.ErrorData
		if jerr := json.Unmarshal(env.Data, &ed); jerr != nil {
			return resp.StatusCode, cacheHdr, false, fmt.Errorf("%s: 429 payload: %w", t.url, jerr)
		}
		if ed.Code != service.CodeOverloaded {
			return resp.StatusCode, cacheHdr, false, fmt.Errorf("%s: 429 with code %q, want %q", t.url, ed.Code, service.CodeOverloaded)
		}
		if resp.Header.Get("Retry-After") == "" {
			return resp.StatusCode, cacheHdr, false, fmt.Errorf("%s: 429 without Retry-After", t.url)
		}
		return resp.StatusCode, cacheHdr, true, nil
	}
	return resp.StatusCode, cacheHdr, false, nil
}

// sample issues one scheduled request and records its outcome relative
// to the run's start.
func sample(client *http.Client, t target, start time.Time) LoadSample {
	reqStart := time.Now()
	status, cacheHdr, shed, err := do(client, t)
	s := LoadSample{
		Scenario:  t.scenario,
		Endpoint:  t.endpoint,
		StartNS:   int64(reqStart.Sub(start)),
		LatencyNS: int64(time.Since(reqStart)),
		Status:    status,
		Cache:     cacheHdr,
		Failed:    err != nil || (status != http.StatusOK && !shed),
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "routeload: %v\n", err)
	} else if status != http.StatusOK && !shed {
		fmt.Fprintf(os.Stderr, "routeload: %s: status %d\n", t.url, status)
	}
	return s
}

// run executes the deterministic schedule: request j
// targets urls[j mod len(urls)], jobs are handed to clients in order,
// and each client's samples land in a per-request slot (no append
// races).
func run(client *http.Client, urls []target, clients, spread, requests int) (samples []LoadSample, wallNS int64) {
	samples = make([]LoadSample, requests)
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				samples[j] = sample(client, urls[j%len(urls)].at(j, spread), start)
			}
		}()
	}
	for j := 0; j < requests; j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	return samples, int64(time.Since(start))
}

func printSummary(out io.Writer, rep LoadReport) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Fprintf(out, "%s: %d requests, %d clients, %d scenario(s), %.1fs wall\n",
		rep.Schema, rep.Requests, rep.Clients, len(rep.Scenarios), float64(rep.WallNS)/1e9)
	fmt.Fprintf(out, "throughput %.1f req/s, errors %d (%.2f%%), sheds %d (%.2f%%), cache hit rate %.1f%% (%d/%d counted)\n",
		rep.Throughput, rep.Errors, rep.ErrorRate*100, rep.Sheds, rep.ShedRate*100,
		rep.CacheHitRate*100, rep.CacheHits, rep.CacheHits+rep.CacheMisses)
	fmt.Fprintf(out, "latency p50 %.1fms p90 %.1fms p99 %.1fms max %.1fms\n",
		ms(rep.Latency.P50NS), ms(rep.Latency.P90NS), ms(rep.Latency.P99NS), ms(rep.Latency.MaxNS))
	w := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "endpoint\trequests\terrors\tsheds\tp50 ms\tp99 ms")
	for _, ep := range rep.Endpoints {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\t%.1f\n",
			ep.Endpoint, ep.Requests, ep.Errors, ep.Sheds, ms(ep.Latency.P50NS), ms(ep.Latency.P99NS))
	}
	w.Flush()
	for _, sc := range rep.PerScenario {
		fmt.Fprintf(out, "scenario %s: %d requests, %d errors, %d sheds\n", sc.Scenario, sc.Requests, sc.Errors, sc.Sheds)
	}
	if len(rep.Buckets) > 0 {
		fmt.Fprintf(out, "histogram: %d buckets of %v\n", len(rep.Buckets), time.Duration(rep.BucketNS))
		bw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
		fmt.Fprintln(bw, "t\trequests\terrors\tsheds\tp50 ms\tp99 ms")
		for _, b := range rep.Buckets {
			fmt.Fprintf(bw, "%v\t%d\t%d\t%d\t%.1f\t%.1f\n",
				time.Duration(b.StartNS), b.Requests, b.Errors, b.Sheds,
				ms(b.Latency.P50NS), ms(b.Latency.P99NS))
		}
		bw.Flush()
	}
}
