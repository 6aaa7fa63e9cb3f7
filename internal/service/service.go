package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"routelab/internal/asn"
	"routelab/internal/classify"
	"routelab/internal/experiments"
	"routelab/internal/obs"
	"routelab/internal/parallel"
	"routelab/internal/scenario"
	"routelab/internal/whatif"
)

// Config sizes the service layer.
type Config struct {
	// MaxConcurrent bounds how many requests compute at once (the
	// admission gate); <= 0 selects GOMAXPROCS, mirroring
	// scenario.Config.RoutingWorkers.
	MaxConcurrent int
	// RequestTimeout caps each request's computation; expiry returns
	// 504. 0 disables the server-side deadline.
	RequestTimeout time.Duration
	// MaxQueuedRequests bounds the admission gate's queue: a request
	// arriving while MaxQueuedRequests callers are already waiting for a
	// compute slot is shed with 429/Retry-After instead of joining the
	// line. 0 disables shedding (requests queue until their deadline).
	MaxQueuedRequests int
}

// Server answers queries over one sealed Scenario: one tenant of the
// Fleet. The store builds one per sealed scenario, hands every tenant
// its partition of the shared response cache (the partition carries the
// scenario id, so two scenarios can never cross-serve cached bodies),
// and the Fleet routes /v1/scenarios/{id}/... requests to the tenant's
// handlers. The zero value is not usable.
type Server struct {
	s        *scenario.Scenario
	cfg      Config
	gate     *parallel.Gate
	cache    partition
	traceIdx map[int]int // Measurement.TraceID -> index into s.Measurements
	health   []byte      // static healthz body
	size     int64       // resident-byte estimate from the build-time accounting walk

	// computeHook, when set (tests only), runs inside compute after the
	// admission gate is entered and before the body function — a seam
	// the saturation suite uses to hold compute slots deterministically.
	computeHook func()
}

// DefaultID is the scenario id the un-prefixed /v1 routes alias:
// routelabd without -scenario-dir registers its one world under it.
const DefaultID = "default"

// newTenant assembles one scenario tenant. cache is its partition of
// the store-wide response cache — all of that cache a tenant ever sees.
func newTenant(s *scenario.Scenario, cfg Config, cache partition) *Server {
	srv := &Server{
		s:        s,
		cfg:      cfg,
		gate:     parallel.NewGate(cfg.MaxConcurrent),
		cache:    cache,
		traceIdx: make(map[int]int, len(s.Measurements)),
	}
	// Warm the per-prefix anycast bases now: one convergence each, the
	// cost the first alternates or what-if request would otherwise pay.
	for _, p := range s.Testbed.Prefixes {
		s.Testbed.AnycastBase(p)
	}
	for i := range s.Measurements {
		srv.traceIdx[s.Measurements[i].TraceID] = i
	}
	health, err := marshalEnvelope("health", HealthData{
		Status:      "ok",
		Seed:        s.Cfg.Seed,
		Scale:       s.Cfg.Topology.Scale,
		ASes:        s.Topo.NumASes(),
		Links:       s.Topo.NumLinks(),
		Probes:      len(s.Probes),
		Traces:      len(s.Measurements),
		Experiments: experiments.Names(),
	})
	if err != nil {
		// The health payload is static and every field is a plain
		// marshalable type; a failure here is a programming error, and a
		// server that cannot produce its own health body must not start.
		panic("service: marshal health envelope: " + err.Error())
	}
	srv.health = health
	// The accounting walk runs last: the bases are warm and the health
	// body exists, so the estimate covers the tenant's full footprint.
	srv.size = srv.accountSize()
	return srv
}

// scenarioRoute is one per-scenario endpoint of the shared route table.
type scenarioRoute struct {
	method string
	path   string // under the scenario root
	name   string // obs instrumentation name (service.requests.<name>)
	h      func(*Server, *reply, *http.Request)
}

// scenarioRoutes is the single route table for every per-scenario
// endpoint: the Fleet mounts each row at /v1/scenarios/{id}{path} and
// again at /v1{path} (the DefaultID alias), both behind its tenant
// resolver. Adding a row here is the whole registration.
// (/v1/metrics is deliberately absent: the obs registry is
// process-global, so the fleet serves it once, not per scenario.)
var scenarioRoutes = []scenarioRoute{
	{http.MethodGet, "/healthz", "healthz", (*Server).serveHealthz},
	{http.MethodGet, "/classify", "classify", (*Server).serveClassify},
	{http.MethodGet, "/alternates", "alternates", (*Server).serveAlternates},
	{http.MethodGet, "/experiments/{name}", "experiments", (*Server).serveExperiment},
	{http.MethodGet, "/as/{asn}", "as", (*Server).serveAS},
	{http.MethodPost, "/whatif", "whatif", (*Server).serveWhatIf},
}

func serveNotFound(rp *reply, r *http.Request) {
	rp.fail(http.StatusNotFound, apiErr(CodeNotFound, fmt.Sprintf("no such route: %s %s", r.Method, r.URL.Path)))
}

// CacheHeader is the response header reporting whether a computed body
// came from the response cache ("hit") or was computed for this
// request ("miss"). cmd/routeload reads it to measure fleet cache-hit
// rates; bodies are byte-identical either way.
const CacheHeader = "X-Routelab-Cache"

// compute produces (and caches) a response body: admission through the
// gate, duplicate suppression and LRU through the tenant's partition of
// the fleet-wide cache. key names the endpoint and its parameters only;
// the partition adds the scenario, so two tenants asking for the same
// endpoint+params never share a body (TestNoCrossScenarioCacheServe).
func (srv *Server) compute(ctx context.Context, key string, fn func(ctx context.Context) ([]byte, error)) ([]byte, bool, error) {
	body, hit, err := srv.cache.do(ctx, key, func() (_ []byte, err error) {
		defer recoverAs(&err, "computing", key)
		// Shed before queueing: a gate line already at budget means this
		// computation would sit behind work it may not outlive. Coalesced
		// waiters on this key inherit the OverloadError and 429 too (each
		// counted at its own write site).
		if max := srv.cfg.MaxQueuedRequests; max > 0 {
			if q := srv.gate.Waiting(); q >= max {
				return nil, &OverloadError{What: "request", Queue: q, Limit: max, RetryAfter: requestRetryAfter}
			}
		}
		if err := srv.gate.Enter(ctx); err != nil {
			return nil, err
		}
		defer srv.gate.Leave()
		if srv.computeHook != nil {
			srv.computeHook()
		}
		return fn(ctx)
	})
	obs.SetGauge("service.cache.entries", float64(srv.cache.len()))
	return body, hit, err
}

// respond is the tail every computed endpoint shares once its
// parameters are validated: apply the server-side deadline, compute (or
// fetch) the body under key, map a failure to its status, and send the
// body with CacheHeader reporting where it came from.
func (srv *Server) respond(rp *reply, r *http.Request, key, contentType string, fn func(ctx context.Context) ([]byte, error)) {
	ctx := r.Context()
	if srv.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, srv.cfg.RequestTimeout)
		defer cancel()
	}
	body, hit, err := srv.compute(ctx, key, fn)
	if err != nil {
		rp.failErr(err, "request deadline exceeded: ")
		return
	}
	cache := "miss"
	if hit {
		cache = "hit"
	}
	rp.bytes(contentType, cache, body)
}

func marshalEnvelope(kind string, data any) ([]byte, error) {
	raw, err := json.Marshal(data)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(Envelope{Schema: Schema, Kind: kind, Data: raw})
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// APIError is a typed handler error: a stable machine-readable code
// (one of the Code* constants, carried in the envelope so clients can
// branch without parsing messages) plus the human-readable detail.
type APIError struct {
	Code    string
	Message string
}

// Error codes every handler reports through fail. The vocabulary is
// deliberately small — a code names a client-actionable class, not an
// individual failure site.
const (
	// CodeBadParam: a malformed or missing query/path parameter.
	CodeBadParam = "bad_param"
	// CodeBadBody: an unreadable or invalid request document.
	CodeBadBody = "bad_body"
	// CodeNotFound: the named resource does not exist.
	CodeNotFound = "not_found"
	// CodeConflict: the request collides with existing state.
	CodeConflict = "conflict"
	// CodeTooLarge: the request document exceeds its size cap.
	CodeTooLarge = "too_large"
	// CodeTimeout: the request ran out of time (gate queue or compute).
	CodeTimeout = "timeout"
	// CodeOverloaded: the server shed the request because a gate queue
	// was at budget; retry after the Retry-After header's delay.
	CodeOverloaded = "overloaded"
	// CodeInternal: a server-side failure the client cannot repair.
	CodeInternal = "internal"
)

func apiErr(code, msg string) APIError { return APIError{Code: code, Message: msg} }

// panicError is a panic inside a computation, as the error its caller
// and every request coalesced onto it receive. Computing code panics on
// a broken invariant (a RIB read outside its declared readers, say); the
// singleflights in cache.do and Store.Get must still retire the call, or
// its key answers nothing but timeouts from then on.
type panicError struct{ value any }

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.value) }

// recoverAs, deferred by a function that runs a computation for a
// singleflight, turns a panic into that function's error (and logs the
// stack net/http would have printed). The deferring function's other
// defers still run: a held gate slot is released.
func recoverAs(err *error, doing, what string) {
	if p := recover(); p != nil {
		log.Printf("service: panic %s %s: %v\n%s", doing, what, p, debug.Stack())
		*err = &panicError{value: p}
	}
}

// --- endpoints --------------------------------------------------------

func (srv *Server) serveHealthz(rp *reply, _ *http.Request) {
	rp.bytes("application/json", "", srv.health)
}

// serveMetrics reports the obs snapshot. It is the one endpoint that
// is NOT deterministic (metrics are history) and is never cached. The
// registry is process-global, so the Fleet serves the same handler.
func serveMetrics(rp *reply, _ *http.Request) {
	rp.envelope(http.StatusOK, "metrics", MetricsData{Metrics: obs.Snap()})
}

func (srv *Server) serveClassify(rp *reply, r *http.Request) {
	traceStr := r.URL.Query().Get("trace")
	if traceStr == "" {
		rp.fail(http.StatusBadRequest, apiErr(CodeBadParam, "missing required parameter: trace"))
		return
	}
	trace, err := strconv.Atoi(traceStr)
	if err != nil {
		rp.fail(http.StatusBadRequest, apiErr(CodeBadParam, "bad trace id: "+err.Error()))
		return
	}
	refs := classify.Refinements
	if rq := r.URL.Query().Get("refinement"); rq != "" {
		ref, ok := refinementByName(rq)
		if !ok {
			rp.fail(http.StatusBadRequest, apiErr(CodeBadParam, fmt.Sprintf("unknown refinement %q (have %v)", rq, refinementNames())))
			return
		}
		refs = []classify.Refinement{ref}
	}
	idx, ok := srv.traceIdx[trace]
	if !ok {
		rp.fail(http.StatusNotFound, apiErr(CodeNotFound, fmt.Sprintf("no measurement with trace id %d", trace)))
		return
	}
	refKey := "all"
	if len(refs) == 1 {
		refKey = refs[0].String()
	}
	key := fmt.Sprintf("classify|%d|%s", trace, refKey)
	srv.respond(rp, r, key, "application/json", func(ctx context.Context) ([]byte, error) {
		return srv.classifyBody(ctx, idx, refs)
	})
}

func (srv *Server) classifyBody(ctx context.Context, idx int, refs []classify.Refinement) ([]byte, error) {
	m := &srv.s.Measurements[idx]
	data := ClassifyData{
		Trace:  m.TraceID,
		SrcAS:  m.SrcAS.String(),
		DstAS:  m.DstAS.String(),
		Prefix: m.Prefix.String(),
	}
	for _, a := range m.ASPath {
		data.ASPath = append(data.ASPath, a.String())
	}
	for _, d := range m.Decisions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cd := ClassifyDecision{
			At:         d.At.String(),
			Via:        d.Via.String(),
			Prefix:     d.Prefix.String(),
			DstAS:      d.DstAS.String(),
			RestLen:    d.RestLen,
			Categories: make(map[string]string, len(refs)),
		}
		for _, ref := range refs {
			cd.Categories[ref.String()] = srv.s.Context.Classify(d, ref).String()
		}
		data.Decisions = append(data.Decisions, cd)
	}
	return marshalEnvelope("classify", data)
}

func (srv *Server) serveAlternates(rp *reply, r *http.Request) {
	targetStr := r.URL.Query().Get("target")
	if targetStr == "" {
		rp.fail(http.StatusBadRequest, apiErr(CodeBadParam, "missing required parameter: target"))
		return
	}
	target, err := asn.ParseASN(targetStr)
	if err != nil {
		rp.fail(http.StatusBadRequest, apiErr(CodeBadParam, "bad target: "+err.Error()))
		return
	}
	if srv.s.Topo.AS(target) == nil {
		rp.fail(http.StatusNotFound, apiErr(CodeNotFound, fmt.Sprintf("no such AS: %s", target)))
		return
	}
	key := "alternates|" + target.String()
	srv.respond(rp, r, key, "application/json", func(_ context.Context) ([]byte, error) {
		return srv.alternatesBody(target)
	})
}

func (srv *Server) alternatesBody(target asn.ASN) ([]byte, error) {
	// Discovery consumes no randomness; the run is a pure function of
	// (engine, prefix, target). The poisoning rounds mutate one fork of
	// the frozen anycast base.
	res := srv.s.Testbed.DiscoverAlternates(srv.s.Testbed.Prefixes[0], target)
	data := AlternatesData{
		Target:        res.Target.String(),
		Prefix:        res.Prefix.String(),
		Announcements: res.Announcements,
		Exhausted:     res.Exhausted,
		Verdict:       srv.s.Context.ClassifyAlternates(res).String(),
	}
	for _, st := range res.Steps {
		sd := AlternateStepData{
			NextHop:  st.Route.NextHop.String(),
			Path:     st.Route.Path.String(),
			Inferred: srv.s.Context.Graph.Rel(res.Target, st.Route.NextHop).String(),
		}
		for _, p := range st.PoisonedSoFar {
			sd.Poisoned = append(sd.Poisoned, p.String())
		}
		data.Steps = append(data.Steps, sd)
	}
	return marshalEnvelope("alternates", data)
}

func (srv *Server) serveExperiment(rp *reply, r *http.Request) {
	name := r.PathValue("name")
	exp, ok := experiments.Get(name)
	if !ok {
		rp.fail(http.StatusNotFound, apiErr(CodeNotFound, fmt.Sprintf("unknown experiment %q (have %v)", name, experiments.Names())))
		return
	}
	seed := srv.s.Cfg.Seed
	if sq := r.URL.Query().Get("seed"); sq != "" {
		v, err := strconv.ParseInt(sq, 10, 64)
		if err != nil {
			rp.fail(http.StatusBadRequest, apiErr(CodeBadParam, "bad seed: "+err.Error()))
			return
		}
		seed = v
	}
	format := r.URL.Query().Get("format")
	if format != "" && format != "json" && format != "text" {
		rp.fail(http.StatusBadRequest, apiErr(CodeBadParam, fmt.Sprintf("unknown format %q (have json, text)", format)))
		return
	}
	contentType := "application/json"
	if format == "text" {
		contentType = "text/plain; charset=utf-8"
	}
	key := fmt.Sprintf("experiment|%s|%d|%s", name, seed, format)
	srv.respond(rp, r, key, contentType, func(ctx context.Context) ([]byte, error) {
		res, err := exp.Run(ctx, &experiments.Env{S: srv.s, Seed: seed})
		if err != nil {
			return nil, err
		}
		if format == "text" {
			return []byte(experiments.Render(res)), nil
		}
		return marshalEnvelope("experiment", ExperimentData{Name: name, Seed: seed, Result: res})
	})
}

func (srv *Server) serveAS(rp *reply, r *http.Request) {
	a, err := asn.ParseASN(r.PathValue("asn"))
	if err != nil {
		rp.fail(http.StatusBadRequest, apiErr(CodeBadParam, "bad asn: "+err.Error()))
		return
	}
	x := srv.s.Topo.AS(a)
	if x == nil {
		rp.fail(http.StatusNotFound, apiErr(CodeNotFound, fmt.Sprintf("no such AS: %s", a)))
		return
	}
	key := "as|" + a.String()
	srv.respond(rp, r, key, "application/json", func(_ context.Context) ([]byte, error) {
		return srv.asBody(x.ASN)
	})
}

func (srv *Server) asBody(a asn.ASN) ([]byte, error) {
	x := srv.s.Topo.AS(a)
	data := ASData{
		ASN:               a.String(),
		Class:             x.Class.String(),
		Country:           string(x.HomeCountry),
		InferredNeighbors: map[string]int{},
	}
	// Collect into a local and sort before publishing into the Result
	// (maporder: Names is a map, iteration order is randomized).
	var names []string
	for name, n := range srv.s.Topo.Names {
		if n == a {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	data.Names = names
	for _, p := range x.Prefixes {
		data.Prefixes = append(data.Prefixes, p.String())
	}
	neigh := srv.s.Context.Graph.Neighbors(a)
	data.InferredDegree = len(neigh)
	for _, n := range neigh {
		data.InferredNeighbors[srv.s.Context.Graph.Rel(a, n).String()]++
	}
	return marshalEnvelope("as", data)
}

// maxWhatIfBytes bounds a what-if request document; even a full batch
// of deltas is a few KiB.
const maxWhatIfBytes = 1 << 20

// serveWhatIf is the POST /v1/whatif endpoint: a routelab-whatif/v1
// document carrying one delta (or a batch) to evaluate against the
// frozen converged anycast base. Each batch entry forks that same base
// — the entries are independent counterfactuals — and the response is
// one structured diff per entry. Bodies are cached under the batch's
// canonical delta key, so semantically equal requests (reordered link
// endpoints, shuffled poison sets) share one computation.
func (srv *Server) serveWhatIf(rp *reply, r *http.Request) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxWhatIfBytes+1))
	if err != nil {
		rp.fail(http.StatusBadRequest, apiErr(CodeBadBody, "read request body: "+err.Error()))
		return
	}
	if len(raw) > maxWhatIfBytes {
		rp.fail(http.StatusRequestEntityTooLarge, apiErr(CodeTooLarge, "what-if document exceeds 1 MiB"))
		return
	}
	var req WhatIfRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		rp.fail(http.StatusBadRequest, apiErr(CodeBadBody, "invalid what-if document: "+err.Error()))
		return
	}
	if err := req.Validate(); err != nil {
		rp.fail(http.StatusBadRequest, apiErr(CodeBadBody, err.Error()))
		return
	}
	ds := req.All()
	prefix := srv.s.Testbed.Prefixes[0]
	if req.Prefix != "" {
		p, err := asn.ParsePrefix(req.Prefix)
		if err != nil {
			rp.fail(http.StatusBadRequest, apiErr(CodeBadParam, "bad prefix: "+err.Error()))
			return
		}
		if !slices.Contains(srv.s.Testbed.Prefixes, p) {
			rp.fail(http.StatusNotFound, apiErr(CodeNotFound, fmt.Sprintf("prefix %s is not a testbed prefix (have %v)", p, srv.s.Testbed.Prefixes)))
			return
		}
		prefix = p
	}
	cds, err := whatif.CompileAll(ds, srv.s.Topo, srv.s.Testbed.Origin)
	if err != nil {
		rp.fail(http.StatusBadRequest, apiErr(CodeBadParam, err.Error()))
		return
	}
	key := "whatif|" + prefix.String() + "|" + whatif.CanonicalKey(cds)
	srv.respond(rp, r, key, "application/json", func(ctx context.Context) ([]byte, error) {
		return srv.whatifBody(ctx, prefix, cds)
	})
}

func (srv *Server) whatifBody(ctx context.Context, prefix asn.Prefix, cds []*whatif.Compiled) ([]byte, error) {
	// Every entry forks the frozen base: exactly one bgp.fork.calls per
	// entry (TestWhatIfBatchForksBase).
	base := srv.s.Testbed.AnycastBase(prefix)
	data := WhatIfData{
		Prefix: prefix.String(),
		Origin: srv.s.Testbed.Origin.String(),
		Deltas: len(cds),
	}
	for _, cd := range cds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d, err := whatif.Eval(base, cd)
		if err != nil {
			return nil, err
		}
		data.Results = append(data.Results, d)
	}
	return marshalEnvelope("whatif", data)
}

// --- refinement names -------------------------------------------------

func refinementByName(name string) (classify.Refinement, bool) {
	for _, r := range classify.Refinements {
		if strings.EqualFold(r.String(), name) {
			return r, true
		}
	}
	return 0, false
}

func refinementNames() []string {
	out := make([]string, 0, len(classify.Refinements))
	for _, r := range classify.Refinements {
		out = append(out, r.String())
	}
	return out
}
