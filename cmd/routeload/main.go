// Command routeload drives a running routelabd fleet with N concurrent
// clients over a mixed scenario/endpoint schedule, builds a
// routelab-load/v1 report and writes it. The report holds the run's
// throughput, cache-hit rate, request, error and clean-shed counts and
// p50/p90/p99 latency, and the same counts per endpoint, per scenario
// and per second of the run (the one-second buckets form a latency
// histogram over time); one tally counts every slice. It exits 1 when
// any request failed, after the report is written, so a shell step
// needs nothing after it.
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
//	-spread N        vary the experiments endpoint's seed over N
//	                 distinct values (0 = off). Concurrent requests to
//	                 one URL coalesce server-side and coalesced waiters
//	                 never shed; a saturating run sets -spread so the
//	                 schedule carries distinct cache keys and actually
//	                 pressures the admission gate
//	-cold A,B        scenario ids to drive WITHOUT warmup: only a
//	                 healthz target each, so the first touch triggers
//	                 the (slow) build during the measured run. With
//	                 three or more cold ids and tight build gates the
//	                 overflow must shed
//	-timeout D       per-request client timeout (default 5m; first
//	                 requests wait on scenario builds)
//	-out PATH        write the routelab-load/v1 emission here
//	                 (default LOAD_routelab.json; "" skips the file)
//
// The schedule is deterministic: request j targets urls[j mod len] and
// walks the endpoint mix in order, jobs handed to clients in order.
// Every response, warmup's included, is read by one function (fetch),
// which validates its body against routelab-api/v1; in the run, a
// transport error, an unexpected status, or an invalid envelope counts
// as an error in the report. A 429 whose envelope carries the
// "overloaded" code AND a Retry-After header is a CLEAN SHED — counted
// separately, not an error — which is how a saturated fleet's
// deliberate load shedding is told apart from breakage.
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
		spread    = flag.Int("spread", 0, "vary the experiments endpoint's seed over N distinct values (defeats response-cache coalescing; <=1 = off)")
		cold      = flag.String("cold", "", "comma-separated scenario ids to drive WITHOUT warmup (healthz only; the first touch triggers the build)")
		timeout   = flag.Duration("timeout", 5*time.Minute, "per-request client timeout")
		out       = flag.String("out", "LOAD_routelab.json", "write the routelab-load/v1 emission here (empty = skip)")
	)
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
	client := newClient(*clients, *timeout)
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

	rep, err := drive(client, base, "routeload "+strings.Join(os.Args[1:], " "),
		ids, splitIDs(*cold), *clients, *requests, *spread)
	if err != nil {
		fmt.Fprintln(os.Stderr, "routeload:", err)
		os.Exit(1)
	}
	printSummary(os.Stdout, rep)
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, "routeload:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "routeload: emission written to %s\n", *out)
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "routeload: %d/%d requests failed\n", rep.Errors, rep.Requests)
		os.Exit(1)
	}
}

// newClient returns the client every routeload request goes through.
// Clients must not churn sockets: the idle pool is sized to the client
// count so every client keeps one warm connection instead of racing
// the default (2 per host) and paying a TCP handshake per request.
func newClient(clients int, timeout time.Duration) *http.Client {
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = clients
	transport.MaxIdleConnsPerHost = clients
	return &http.Client{Timeout: timeout, Transport: transport}
}

// drive is the measurement: warm up every id in ids, add one healthz
// target per cold id, run the schedule and aggregate it into the
// routelab-load/v1 report.
func drive(client *http.Client, base, command string, ids, cold []string, clients, requests, spread int) (LoadReport, error) {
	// Warmup: build every scenario and discover per-scenario request
	// parameters before the clock starts.
	var urls []target
	for _, id := range ids {
		ts, err := warmup(client, base, id)
		if err != nil {
			return LoadReport{}, fmt.Errorf("warmup %s: %w", id, err)
		}
		urls = append(urls, ts...)
	}
	// Cold scenarios skip warmup on purpose: their first healthz IS the
	// load. Several cold ids touched concurrently pressure the build
	// gate — with a tight -max-queued-builds the overflow surfaces as
	// clean 429s, which is how a saturated fleet sheds builds through
	// the public API. Builds run ~seconds while requests arrive in
	// milliseconds, so the pressure is machine-independent (unlike
	// request-gate contention, which needs computes long enough to
	// overlap).
	ids = append(ids, cold...)
	for _, id := range cold {
		urls = append(urls, target{scenario: id, endpoint: "healthz",
			url: base + "/v1/scenarios/" + id + "/healthz"})
	}

	samples, wallNS := run(client, urls, clients, spread, requests)
	return BuildLoadReport(command, base, ids, clients, wallNS, samples), nil
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
	r, err := fetch(client, base+"/v1/scenarios", "")
	if r.status != 0 && r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/scenarios: status %d (is -addr a routelabd? every routelabd answers it)", r.status)
	}
	if err != nil {
		return nil, err
	}
	var data service.ScenariosData
	if err := unmarshalData(r.env, "scenarios", &data); err != nil {
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
// mix: a live trace id probed from trace 0 up, and an AS taken from
// that trace's first routing decision. A healthz that does not answer
// 200 (an id the fleet does not have, a build shed or failed) ends the
// warmup there, with the server's reason.
func warmup(client *http.Client, base, id string) ([]target, error) {
	prefix := base + "/v1/scenarios/" + id
	if err := healthz(client, prefix+"/healthz"); err != nil {
		return nil, err
	}
	var classifyURL string
	var classify service.ClassifyData
	for t := 0; t < 200; t++ {
		u := fmt.Sprintf("%s/classify?trace=%d", prefix, t)
		r, err := fetch(client, u, "")
		if r.status != 0 && r.status != http.StatusOK {
			continue
		}
		if err != nil {
			return nil, err
		}
		if err := unmarshalData(r.env, "classify", &classify); err != nil {
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

// response is what routeload reads of one reply: its status, its
// service.CacheHeader, whether it advertises Retry-After, and its
// routelab-api/v1 envelope.
type response struct {
	status     int
	cache      string
	retryAfter bool
	env        service.Envelope
}

// fetch issues one request — GET, or POST when body is not empty — and
// reads the reply. Every routeload request goes through it. The error
// is the transport's (status 0) or the envelope's, which names the URL
// (status set).
func fetch(client *http.Client, url, body string) (response, error) {
	var resp *http.Response
	var err error
	if body != "" {
		resp, err = client.Post(url, "application/json", strings.NewReader(body))
	} else {
		resp, err = client.Get(url)
	}
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	r := response{
		status:     resp.StatusCode,
		cache:      resp.Header.Get(service.CacheHeader),
		retryAfter: resp.Header.Get("Retry-After") != "",
	}
	if r.env, err = service.ReadEnvelope(resp.Body); err != nil {
		return r, fmt.Errorf("%s: %w", url, err)
	}
	return r, nil
}

// healthz issues one GET to a healthz URL and validates the envelope;
// any status but 200 is an error naming the status and the error
// envelope's code and message.
func healthz(client *http.Client, url string) error {
	r, err := fetch(client, url, "")
	if err != nil || r.status == http.StatusOK {
		return err
	}
	var ed service.ErrorData
	if err := unmarshalData(r.env, "error", &ed); err != nil {
		return fmt.Errorf("healthz: status %d: %w", r.status, err)
	}
	return fmt.Errorf("healthz: status %d (%s): %s", r.status, ed.Code, ed.Error)
}

// do issues one scheduled request and validates its reply. shed reports
// a clean shed: status 429 whose envelope carries the "overloaded" code
// and whose response advertises Retry-After. A 429 without both is NOT
// a shed — it stays an error, so a server that refuses without telling
// clients when to come back fails the harness.
func do(client *http.Client, t target) (r response, shed bool, err error) {
	r, err = fetch(client, t.url, t.body)
	if err != nil || r.status != http.StatusTooManyRequests {
		return r, false, err
	}
	var ed service.ErrorData
	if err := json.Unmarshal(r.env.Data, &ed); err != nil {
		return r, false, fmt.Errorf("%s: 429 payload: %w", t.url, err)
	}
	if ed.Code != service.CodeOverloaded {
		return r, false, fmt.Errorf("%s: 429 with code %q, want %q", t.url, ed.Code, service.CodeOverloaded)
	}
	if !r.retryAfter {
		return r, false, fmt.Errorf("%s: 429 without Retry-After", t.url)
	}
	return r, true, nil
}

// sample issues one scheduled request and records its outcome relative
// to the run's start.
func sample(client *http.Client, t target, start time.Time) LoadSample {
	reqStart := time.Now()
	r, shed, err := do(client, t)
	s := LoadSample{
		Scenario:  t.scenario,
		Endpoint:  t.endpoint,
		StartNS:   int64(reqStart.Sub(start)),
		LatencyNS: int64(time.Since(reqStart)),
		Status:    r.status,
		Cache:     r.cache,
		Failed:    err != nil || (r.status != http.StatusOK && !shed),
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "routeload: %v\n", err)
	} else if r.status != http.StatusOK && !shed {
		fmt.Fprintf(os.Stderr, "routeload: %s: status %d\n", t.url, r.status)
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
		printRow(w, ep.Endpoint, ep.Requests, ep.Errors, ep.Sheds, ep.Latency)
	}
	w.Flush()
	for _, sc := range rep.PerScenario {
		fmt.Fprintf(out, "scenario %s: %d requests, %d errors, %d sheds\n", sc.Scenario, sc.Requests, sc.Errors, sc.Sheds)
	}
	fmt.Fprintf(out, "histogram: %d buckets of %v\n", len(rep.Buckets), time.Duration(rep.BucketNS))
	w = tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "t\trequests\terrors\tsheds\tp50 ms\tp99 ms")
	for _, b := range rep.Buckets {
		printRow(w, time.Duration(b.StartNS).String(), b.Requests, b.Errors, b.Sheds, b.Latency)
	}
	w.Flush()
}

// printRow prints one slice of the run as a row of printSummary's
// endpoint or bucket table.
func printRow(w io.Writer, label string, requests, errors, sheds int64, l LoadLatency) {
	fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\t%.1f\n", label, requests, errors, sheds, ms(l.P50NS), ms(l.P99NS))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
