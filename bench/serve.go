package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"routelab/internal/obs"
	"routelab/internal/service"
	"routelab/internal/spec"
	"routelab/internal/topology"
)

// serveKind is what differs between the two serve workloads. The
// open-loop rates are about a fifth of the closed-loop capacity
// measured when the benchmark was written (see README.md); they are
// constants so that latency is always read at the same offered load.
type serveKind struct {
	schedule func(seed int64, cats []catalog, n int) []request
	length   int           // schedule length; the phases wrap around it
	rate     int           // the open loop's requests per second
	limit    time.Duration // the open loop's latency limit, behind open.slo_miss_ratio
	// hitLo..hitHi is the range service.cache_hit_ratio must fall in
	// for the run to be the workload it claims to be.
	hitLo, hitHi float64
}

var serveKinds = map[string]serveKind{
	"serve_hot":  {hotSchedule, 1 << 15, 1000, 5 * time.Millisecond, 0.99, 1},
	"serve_miss": {missSchedule, 1 << 16, 200, 50 * time.Millisecond, 0, 0.05},
}

// openWorkers is how many requests the open loop can have in flight. It is
// far above rate × latency, so the generator only falls behind when
// the server does.
const openWorkers = 32

// openGrace is how long after the open loop's end a late request may
// still be sent; a backlog older than that is reported, not worked off.
const openGrace = time.Second

// harvestPerTenant is how many live trace ids the set-up collects from
// each tenant; with the eight classify variants that alone is more
// than ten caches of distinct keys.
const harvestPerTenant = 160

func fleetDir(quick bool) string {
	name := "fleet"
	if quick {
		name = "quickfleet"
	}
	return filepath.Join(benchDir(), "worlds", name)
}

// fleet is one booted routelabd fleet and the client side of it.
type fleet struct {
	store  *service.Store
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	cats   []catalog
	// buildS is the sum of every tenant's first Store.Get.
	buildS float64
}

// bootFleet is the serve set-up: register the fleet's worlds, build
// every tenant, serve the fleet handler on loopback, and harvest
// request parameters over the API the way routeload's warm-up does.
// wrap, when not nil, goes around the fleet handler.
func bootFleet(dir string, wrap func(http.Handler) http.Handler) (*fleet, error) {
	f := &fleet{store: service.NewStore(service.StoreConfig{}), served: make(chan error, 1)}
	if _, err := f.store.RegisterDir(dir); err != nil {
		return nil, err
	}
	handler := service.NewFleet(f.store).Handler()
	if wrap != nil {
		handler = wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.store.Close()
		return nil, err
	}
	f.srv = &http.Server{Handler: handler}
	go func() { f.served <- f.srv.Serve(ln) }()
	f.base = "http://" + ln.Addr().String()
	conns := lanes() + openWorkers
	f.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
	}
	for _, id := range f.store.IDs() {
		t0 := time.Now()
		if _, err := f.store.Get(context.Background(), id); err != nil {
			f.close()
			return nil, fmt.Errorf("build tenant %s: %w", id, err)
		}
		f.buildS += time.Since(t0).Seconds()
		cat, err := f.harvest(dir, id)
		if err != nil {
			f.close()
			return nil, err
		}
		f.cats = append(f.cats, cat)
	}
	return f, nil
}

// close stops the server and the store's background work, and waits
// for both.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		f.srv.Close()
	}
	<-f.served
	f.client.CloseIdleConnections()
	f.store.Close()
}

// harvest scans trace ids upward until harvestPerTenant answer, and
// generates the tenant's topology from its spec for the AS and link
// catalogue (the store builds the same one from the same config).
func (f *fleet) harvest(dir, id string) (catalog, error) {
	exp, err := spec.Expand(filepath.Join(dir, id+".yaml"), nil)
	if err != nil {
		return catalog{}, err
	}
	topo := topology.Generate(exp.Config.Seed, exp.Config.Topology)
	var traces []int
	for t := 0; len(traces) < harvestPerTenant && t < 20*harvestPerTenant; t++ {
		resp, err := f.client.Get(fmt.Sprintf("%s/v1/scenarios/%s/classify?trace=%d&refinement=Simple", f.base, id, t))
		if err != nil {
			return catalog{}, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return catalog{}, err
		}
		if resp.StatusCode == http.StatusOK {
			traces = append(traces, t)
		}
	}
	if len(traces) == 0 {
		return catalog{}, fmt.Errorf("tenant %s: no usable trace id", id)
	}
	return newCatalog(id, topo, traces), nil
}

// Request outcomes.
const (
	outOK = iota
	outShed
	outFailed
)

// sample is one request as the client saw it. Latency runs from the
// send in the closed loop and from the due time in the open loop.
type sample struct {
	endpoint int
	outcome  int
	cache    string // X-Routelab-Cache: "hit", "miss" or ""
	op       int64
	latNS    int64
	lagNS    int64 // how late after its due time it was sent (open loop)
}

// do sends one request, reads the whole body and validates it. A
// response counts as a clean shed only as routeload counts one: 429,
// the overloaded code, and a Retry-After.
func (f *fleet) do(q request, op int64, traced bool) (outcome int, cache string, body []byte, err error) {
	var rd io.Reader
	if q.body != "" {
		rd = strings.NewReader(q.body)
	}
	req, err := http.NewRequest(q.method(), f.base+q.path, rd)
	if err != nil {
		return outFailed, "", nil, err
	}
	if q.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if traced {
		req.Header.Set(requestHeader, strconv.FormatInt(op, 10))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return outFailed, "", nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outFailed, "", nil, err
	}
	cache = resp.Header.Get(service.CacheHeader)
	env, err := service.ReadEnvelope(bytes.NewReader(body))
	if err != nil {
		return outFailed, cache, body, fmt.Errorf("%s: %w", q.path, err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if env.Kind != envelopeKinds[q.endpoint] {
			return outFailed, cache, body, fmt.Errorf("%s: envelope kind %q, want %q", q.path, env.Kind, envelopeKinds[q.endpoint])
		}
		if q.endpoint == epWhatIf {
			var d service.WhatIfData
			if err := json.Unmarshal(env.Data, &d); err != nil {
				return outFailed, cache, body, fmt.Errorf("%s: %w", q.path, err)
			}
			if err := d.Validate(); err != nil {
				return outFailed, cache, body, fmt.Errorf("%s: %w", q.path, err)
			}
		}
		return outOK, cache, body, nil
	case http.StatusTooManyRequests:
		var ed service.ErrorData
		if err := json.Unmarshal(env.Data, &ed); err != nil || ed.Code != service.CodeOverloaded || resp.Header.Get("Retry-After") == "" {
			return outFailed, cache, body, fmt.Errorf("%s: 429 without the overloaded code and Retry-After", q.path)
		}
		return outShed, cache, body, nil
	default:
		return outFailed, cache, body, fmt.Errorf("%s: status %d: %s", q.path, resp.StatusCode, bytes.TrimSpace(env.Data))
	}
}

// generator drives the phases of one run against a fleet. Request n of
// the run is sched[n mod len]: each phase goes on where the last one
// stopped, so that what the schedule promises about neighbouring
// requests holds across phases too. rec, when set, makes the following
// phases traced ones: each request carries its id and leaves a client
// span.
type generator struct {
	f     *fleet
	sched []request
	rec   *recorder
	pos   int // the next phase's first request
	// errs keeps the first few failures for the result's notes.
	mu   sync.Mutex
	errs []string
}

func (g *generator) one(q request, op int64) sample {
	s := sample{endpoint: q.endpoint, op: op}
	var spanStart int64
	if g.rec != nil {
		spanStart = g.rec.now()
	}
	t0 := time.Now()
	var err error
	s.outcome, s.cache, _, err = g.f.do(q, op, g.rec != nil)
	s.latNS = int64(time.Since(t0))
	if g.rec != nil {
		g.rec.add(op, "client", "client/"+endpoints[q.endpoint], spanStart, spanStart+s.latNS)
	}
	if err != nil {
		g.mu.Lock()
		if len(g.errs) < 5 {
			g.errs = append(g.errs, err.Error())
		}
		g.mu.Unlock()
	}
	return s
}

// closedLoop is clients that each wait for a reply before sending the
// next request, for d. It returns the samples and the wall time.
func (g *generator) closedLoop(clients int, d time.Duration) ([]sample, time.Duration) {
	offset := g.pos
	per := make([][]sample, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				per[c] = append(per[c], g.one(g.sched[(offset+i)%len(g.sched)], int64(offset+i)))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	g.pos += int(next.Load())
	var all []sample
	for _, ss := range per {
		all = append(all, ss...)
	}
	return all, wall
}

// openLoop is the fixed-rate phase: request i is due at start + i/rate
// whether or not earlier ones have been answered, and its latency runs
// from that due time, so a stall is charged to every request it delays.
// Requests still unsent openGrace after the last one was due are never
// sent; due counts them.
func (g *generator) openLoop(workers, rate int, d time.Duration) (samples []sample, due int) {
	offset := g.pos
	due = int(d.Seconds() * float64(rate))
	g.pos += due
	interval := time.Second / time.Duration(rate)
	per := make([][]sample, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d + openGrace)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= due {
					return
				}
				dueAt := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(dueAt))
				sent := time.Now()
				if sent.After(deadline) {
					return
				}
				s := g.one(g.sched[(offset+i)%len(g.sched)], int64(offset+i))
				s.lagNS = int64(sent.Sub(dueAt))
				s.latNS += s.lagNS
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	for _, ss := range per {
		samples = append(samples, ss...)
	}
	return samples, due
}

// phaseStats are the numbers read off one phase's samples.
type phaseStats struct {
	ok, shed, failed int
	hits, misses     int
	latMS            []float64 // ascending, answered requests only
	lagMS            []float64 // ascending
	byEndpoint       [][]float64
}

func summarize(samples []sample) phaseStats {
	st := phaseStats{byEndpoint: make([][]float64, len(endpoints))}
	for _, s := range samples {
		switch s.outcome {
		case outOK:
			st.ok++
		case outShed:
			st.shed++
		default:
			st.failed++
			continue
		}
		switch s.cache {
		case "hit":
			st.hits++
		case "miss":
			st.misses++
		}
		ms := float64(s.latNS) / 1e6
		st.latMS = append(st.latMS, ms)
		st.lagMS = append(st.lagMS, float64(s.lagNS)/1e6)
		st.byEndpoint[s.endpoint] = append(st.byEndpoint[s.endpoint], ms)
	}
	st.latMS, st.lagMS = sorted(st.latMS), sorted(st.lagMS)
	for i := range st.byEndpoint {
		st.byEndpoint[i] = sorted(st.byEndpoint[i])
	}
	return st
}

// ladder renders the p50/p90/p95/p99 of an ascending sample.
func ladder(asc []float64) string {
	return fmt.Sprintf("%.3g/%.3g/%.3g/%.3g", percentile(asc, 50), percentile(asc, 90), percentile(asc, 95), percentile(asc, 99))
}

// sloMisses counts the open-loop requests that missed the latency limit:
// failed, shed, slower than the limit, or due but never sent.
func sloMisses(samples []sample, due int, limit time.Duration) int {
	misses := due - len(samples)
	for _, s := range samples {
		if s.outcome != outOK || s.latNS > int64(limit) {
			misses++
		}
	}
	return misses
}

// warm touches every distinct request of reqs once, and checks the
// byte-identity contract on the first verify of them: a URL fetched
// twice — as a miss, then as a hit — returns the same bytes.
func (f *fleet) warm(r *Result, reqs []request, verify int) error {
	seen := make(map[string]bool)
	for _, q := range reqs {
		if seen[q.key()] {
			continue
		}
		seen[q.key()] = true
		out, _, first, err := f.do(q, 0, false)
		if err != nil || out != outOK {
			return fmt.Errorf("warm-up: %s: outcome %d: %v", q.path, out, err)
		}
		if verify > 0 && q.endpoint != epHealthz {
			verify--
			_, cache, second, err := f.do(q, 0, false)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if cache != "hit" || !bytes.Equal(first, second) {
				r.check("serve.hit_equals_miss", false, "%s: second fetch cache=%q, identical=%v", q.path, cache, bytes.Equal(first, second))
				return nil
			}
		}
	}
	r.check("serve.hit_equals_miss", true, "")
	return nil
}

// runServe measures one serve workload end to end: set-up (the median
// of three), then the closed loop for the whole of o.seconds. The
// end-to-end latencies are the closed loop's: routelabd's callers wait
// for each reply, and on a small shared machine the open loop's
// percentiles measure the generator's timers more than the server (see
// README.md), so that phase belongs to the traced run.
func runServe(o options) (*Result, error) {
	r := o.result()
	kind := serveKinds[o.workload]
	reps := 3
	if o.quick {
		reps = 1
	}
	var f *fleet
	var sched []request
	var setups []float64
	for i := 0; i < reps; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = bootFleet(fleetDir(o.quick), nil); err != nil {
			return nil, err
		}
		sched = kind.schedule(o.seed, f.cats, kind.length)
		r.Checks = r.Checks[:0]
		if err := f.warm(r, warmSet(kind, sched, f.cats), 64); err != nil {
			f.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()

	g := &generator{f: f, sched: sched}
	a, wall := g.closedLoop(lanes(), phaseLength(o, o.duration()))
	st := summarize(a)
	r.Attempted = len(a)
	r.Failed = st.failed
	g.noteErrors(r)
	checkHitBand(r, kind, st)
	tp, tv := tail(st.latMS)
	r.note("op = one request; %d clients, closed loop, %.1fs, %d requests, %d shed; latency ms p50/p90/p95/p99 %s; op_tail_ms is p%g",
		lanes(), wall.Seconds(), len(a), st.shed, ladder(st.latMS), tp)
	r.Metrics = values{
		"setup_s":     median(setups),
		"ops_per_s":   float64(st.ok) / wall.Seconds(),
		"op_p50_ms":   median(st.latMS),
		"op_tail_ms":  tv,
		"peak_rss_mb": peakRSSMB(),
	}.metrics(endToEnd)
	return r, nil
}

// phaseLength is d, or 0.3 s in quick mode.
func phaseLength(o options, d time.Duration) time.Duration {
	if o.quick {
		return 300 * time.Millisecond
	}
	return d
}

func (g *generator) noteErrors(r *Result) {
	for _, e := range g.errs {
		r.note("failed request: %s", e)
	}
}

// warmSet is what the set-up touches. On serve_hot it is the whole
// schedule, so that the run stays inside the cache. On serve_miss it
// is the schedule's tail, which no phase reaches (to open the
// connections and check byte identity), and then more distinct /as
// lookups than the cache holds, so that nothing the harvest or the
// tail left in the cache can be hit.
func warmSet(kind serveKind, sched []request, cats []catalog) []request {
	if kind.hitLo > 0 {
		return sched
	}
	out := append([]request(nil), sched[len(sched)-96:]...)
	for i := 0; len(out) < 96+cacheEntries+lanes()+openWorkers; i++ {
		c := cats[i%len(cats)]
		out = append(out, request{epAS, c.root() + "/as/" + c.ases[(i/len(cats))%len(c.ases)].String(), ""})
	}
	return out
}

// checkHitBand fails a run whose cache hit ratio says it was not the
// workload it claims to be.
func checkHitBand(r *Result, kind serveKind, st phaseStats) {
	hit := ratio(int64(st.hits), int64(st.hits+st.misses))
	r.check("serve.cache_hit_band", hit >= kind.hitLo && hit <= kind.hitHi,
		"cache hit ratio %.4f outside [%.2f, %.2f]", hit, kind.hitLo, kind.hitHi)
}

// tracedPhase is how long each phase of the traced serve run lasts.
const tracedPhase = 5 * time.Second

// traceServe is the traced run of a serve workload: an untraced closed
// loop for the overhead base, then a closed loop and the fixed-rate
// open loop with a span per request on each side of the socket.
func traceServe(o options) (*Result, error) {
	r := o.result()
	kind := serveKinds[o.workload]
	rec := newRecorder()
	var tracing atomic.Bool
	wrap := func(next http.Handler) http.Handler {
		traced := rec.middleware(next)
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if tracing.Load() {
				traced.ServeHTTP(w, req)
			} else {
				next.ServeHTTP(w, req)
			}
		})
	}
	f, err := bootFleet(fleetDir(o.quick), wrap)
	if err != nil {
		return nil, err
	}
	defer f.close()
	sched := kind.schedule(o.seed, f.cats, kind.length)
	if err := f.warm(r, warmSet(kind, sched, f.cats), 64); err != nil {
		return nil, err
	}
	phase := phaseLength(o, tracedPhase)
	g := &generator{f: f, sched: sched}
	// A short unmeasured ramp, so that the base does not pay for the
	// first concurrent requests and look slower than the traced phase.
	g.closedLoop(lanes(), phase/5)
	p, wallP := g.closedLoop(lanes(), phase)
	sp := summarize(p)

	before := obs.Snap()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tracing.Store(true)
	g.rec = rec
	a, wallA := g.closedLoop(lanes(), phase)
	b, due := g.openLoop(openWorkers, kind.rate, phase)
	tracing.Store(false)
	mem := memSince(&m0)
	after := obs.Snap()
	sa, sb := summarize(a), summarize(b)
	all := summarize(append(a, b...))

	r.Attempted = len(p) + len(a) + due
	r.Failed = sp.failed + all.failed + (due - len(b))
	g.noteErrors(r)
	checkHitBand(r, kind, all)

	spans := rec.finished()
	parentHandlersByOp(spans)
	layers := selfByLayer(spans)
	r.LayerSelfS = layers
	if err := writeTrace(o.workload, spans); err != nil {
		return nil, err
	}
	handlerUS, overheadUS := handlerTimes(spans)

	rpsPlain, rpsTraced := float64(sp.ok)/wallP.Seconds(), float64(sa.ok)/wallA.Seconds()
	v := values{
		"service.handler_p50_us":  median(handlerUS),
		"service.handler_p99_us":  percentile(handlerUS, 99),
		"service.cache_hit_ratio": ratio(int64(all.hits), int64(all.hits+all.misses)),
		"service.sheds":           float64(all.shed),
		"service.errors":          float64(all.failed),
		"service.store_build_s":   f.buildS,
		"service.resident_mb":     float64(f.store.ResidentBytes()) / (1 << 20),
		"net.overhead_p50_us":     median(overheadUS),
		"open.p50_ms":             median(sb.latMS),
		"open.p99_ms":             percentile(sb.latMS, 99),
		"open.slo_miss_ratio":     float64(sloMisses(b, due, kind.limit)) / float64(due),
		"gen.lag_p99_ms":          percentile(sb.lagMS, 99),
		"gen.sent":                float64(len(b)),
		"gen.due":                 float64(due),
		"trace.overhead_ratio":    rpsPlain / rpsTraced,
		"trace.attributed_share":  layers["service"] / (layers["service"] + layers["client"]),
	}
	bgpCounts(v, func(name string) int64 { return after.Counters[name] - before.Counters[name] })
	mem.into(v)
	for i, name := range endpoints {
		v["service."+name+".p50_ms"] = median(all.byEndpoint[i])
		v["service."+name+".p99_ms"] = percentile(all.byEndpoint[i], 99)
	}
	r.note("open loop: %d req/s for %.0fs, %d due, %d sent, %d shed; latency from the due time, ms p50/p90/p95/p99 %s; limit %v",
		kind.rate, phase.Seconds(), due, len(b), sb.shed, ladder(sb.latMS), kind.limit)
	if lag := v["gen.lag_p99_ms"]; lag > 1 {
		r.note("SUSPECT: the generator sent %.2f ms late at p99 (ms p50/p90/p95/p99 %s); the open loop's latencies include its lag", lag, ladder(sb.lagMS))
	}
	r.note("trace.overhead_ratio = untraced %.0f req/s / traced %.0f req/s (closed loop)", rpsPlain, rpsTraced)
	r.Metrics = v.metrics(perLayer)
	return r, nil
}

// handlerTimes pairs the client and handler span of every request and
// returns the handler durations and the round trip's remainder (the
// socket, net/http on both sides, the client's validation), ascending,
// in microseconds.
func handlerTimes(spans []Span) (handlerUS, overheadUS []float64) {
	client := make(map[int]Span, len(spans)/2)
	for _, s := range spans {
		if s.Layer == "client" {
			client[s.ID] = s
		}
	}
	for _, s := range spans {
		if s.Layer != "service" {
			continue
		}
		handlerUS = append(handlerUS, float64(s.dur())/1e3)
		if c, ok := client[s.Parent]; ok {
			overheadUS = append(overheadUS, float64(c.dur()-s.dur())/1e3)
		}
	}
	return sorted(handlerUS), sorted(overheadUS)
}
