package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"routelab/internal/spec"
)

// Fleet is the HTTP face of the service: /v1/scenarios listing and
// admission over a Store, plus per-scenario routing that resolves {id}
// to a tenant Server (building the sealed scenario on demand) and
// delegates to its endpoint handlers. The un-prefixed /v1 routes are an
// alias for the tenant named DefaultID, so a fleet of one serves the
// plain API through the same resolver, gate and cache keys. Every
// tenant keeps its own admission gate and a scenario-id-keyed partition
// of the shared response cache, so tenants bound their compute
// independently and can never cross-serve cached bodies.
type Fleet struct {
	store *Store
	mux   *http.ServeMux
}

// NewFleet assembles the fleet handler over a store.
func NewFleet(store *Store) *Fleet {
	f := &Fleet{store: store, mux: http.NewServeMux()}
	handle(f.mux, "GET /v1/metrics", "metrics", serveMetrics)
	handle(f.mux, "GET /v1/scenarios", "scenarios", f.serveScenarios)
	handle(f.mux, "POST /v1/scenarios", "admit", f.serveAdmit)
	handle(f.mux, "GET /v1/scenarios/{id}", "scenario", f.serveScenario)
	// Build progress deliberately bypasses the tenant resolver: asking
	// how a build is going must answer instantly, never trigger the
	// build or queue behind it.
	handle(f.mux, "GET /v1/scenarios/{id}/build", "build", f.serveBuildProgress)
	handle(f.mux, "GET /v1/build", "build", f.serveBuildProgress)
	// Every per-scenario endpoint is mounted twice from the one route
	// table: under its scenario root, and un-prefixed as the DefaultID
	// alias (scenarioID supplies the id the pattern lacks).
	for _, rt := range scenarioRoutes {
		h := f.tenant(rt.h)
		handle(f.mux, rt.method+" /v1/scenarios/{id}"+rt.path, rt.name, h)
		if rt.name == "healthz" {
			h = f.serveHealthz // falls back to the fleet summary
		}
		handle(f.mux, rt.method+" /v1"+rt.path, rt.name, h)
	}
	handle(f.mux, "/", "notfound", serveNotFound)
	return f
}

// Handler returns the fleet's http.Handler (the /v1 API).
func (f *Fleet) Handler() http.Handler { return f.mux }

// scenarioID is the scenario a request addresses: the {id} path
// segment, or DefaultID on the un-prefixed alias routes.
func scenarioID(r *http.Request) string {
	if id := r.PathValue("id"); id != "" {
		return id
	}
	return DefaultID
}

// tenant adapts a per-scenario endpoint handler: resolve the scenario
// id through the store — an LRU hit, a coalesced wait, or a fresh
// build — then delegate. The request context bounds the resolution
// wait.
func (f *Fleet) tenant(h func(*Server, *reply, *http.Request)) func(*reply, *http.Request) {
	return func(rp *reply, r *http.Request) {
		srv, err := f.store.Get(r.Context(), scenarioID(r))
		if err != nil {
			rp.failErr(err, buildWait)
			return
		}
		h(srv, rp, r)
	}
}

// buildWait prefixes the 504 of a request that ran out of time waiting
// on its scenario's build.
const buildWait = "scenario build wait: "

// serveHealthz is GET /v1/healthz: the DefaultID tenant's health body
// when that id is registered (the alias contract), the store summary
// otherwise — chosen from what the store holds, not from a mode.
func (f *Fleet) serveHealthz(rp *reply, r *http.Request) {
	srv, err := f.store.Get(r.Context(), DefaultID)
	if err == nil {
		srv.serveHealthz(rp, r)
		return
	}
	if !errors.Is(err, ErrUnknownScenario) {
		rp.failErr(err, buildWait)
		return
	}
	infos := f.store.Infos()
	data := FleetHealthData{Status: "ok", Scenarios: len(infos), IDs: make([]string, 0, len(infos))}
	for _, in := range infos {
		if in.Built {
			data.Built++
		}
		data.IDs = append(data.IDs, in.ID)
	}
	rp.envelope(http.StatusOK, "health", data)
}

func (f *Fleet) serveScenarios(rp *reply, _ *http.Request) {
	infos := f.store.Infos()
	data := ScenariosData{Count: len(infos), Scenarios: infos}
	for _, in := range infos {
		if in.Built {
			data.Built++
		}
	}
	rp.envelope(http.StatusOK, "scenarios", data)
}

// serveBuildProgress is GET /v1/scenarios/{id}/build (and /v1/build):
// a phase/percent snapshot of the scenario's build. Like /v1/metrics it
// reports history, so it is never cached and is exempt from the
// byte-identity contract.
func (f *Fleet) serveBuildProgress(rp *reply, r *http.Request) {
	d, err := f.store.BuildProgress(scenarioID(r))
	if err != nil {
		rp.failErr(err, buildWait)
		return
	}
	rp.envelope(http.StatusOK, "build", d)
}

func (f *Fleet) serveScenario(rp *reply, r *http.Request) {
	info, err := f.store.Info(r.PathValue("id"))
	if err != nil {
		rp.failErr(err, buildWait)
		return
	}
	rp.envelope(http.StatusOK, "scenario", ScenarioData{Scenario: info})
}

// maxSpecBytes bounds an admitted spec document; corpus specs are a
// few hundred bytes, so 1 MiB is generous without letting a client
// hold the handler on an unbounded body.
const maxSpecBytes = 1 << 20

// serveAdmit is the POST /v1/scenarios admission path: the body is a
// routelab-spec/v1 document (YAML or JSON; no base: chains — those
// need file resolution), compiled and validated before registration.
// Like -scenario-dir registration, admission is cheap; the sealed
// scenario is built on the first per-scenario request.
func (f *Fleet) serveAdmit(rp *reply, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		rp.fail(http.StatusBadRequest, apiErr(CodeBadBody, "read spec body: "+err.Error()))
		return
	}
	if len(body) > maxSpecBytes {
		rp.fail(http.StatusRequestEntityTooLarge, apiErr(CodeTooLarge, "spec document exceeds 1 MiB"))
		return
	}
	format, err := specFormat(r, body)
	if err != nil {
		rp.fail(http.StatusBadRequest, apiErr(CodeBadParam, err.Error()))
		return
	}
	sp, err := spec.Parse("request body", body, format, nil)
	if err != nil {
		rp.fail(http.StatusBadRequest, apiErr(CodeBadBody, "invalid spec: "+err.Error()))
		return
	}
	exp, err := sp.Expansion()
	if err != nil {
		rp.fail(http.StatusBadRequest, apiErr(CodeBadBody, "invalid spec: "+err.Error()))
		return
	}
	if err := f.store.Register(exp, "api"); err != nil {
		rp.fail(http.StatusConflict, apiErr(CodeConflict, err.Error()))
		return
	}
	info, err := f.store.Info(exp.Name)
	if err != nil {
		rp.fail(http.StatusInternalServerError, apiErr(CodeInternal, err.Error()))
		return
	}
	rp.envelope(http.StatusCreated, "scenario", ScenarioData{Scenario: info})
}

// specFormat picks the admission document's parser: an explicit
// ?format= wins, then the Content-Type, then a sniff (a JSON document
// starts with '{'; everything else is YAML, which spec.Parse rejects
// with a file:line error if it is neither).
func specFormat(r *http.Request, body []byte) (string, error) {
	switch q := r.URL.Query().Get("format"); q {
	case "json", "yaml":
		return q, nil
	case "":
	default:
		return "", fmt.Errorf("unknown format %q (have yaml, json)", q)
	}
	if strings.Contains(r.Header.Get("Content-Type"), "json") {
		return "json", nil
	}
	if b := bytes.TrimLeft(body, " \t\r\n"); len(b) > 0 && b[0] == '{' {
		return "json", nil
	}
	return "yaml", nil
}
