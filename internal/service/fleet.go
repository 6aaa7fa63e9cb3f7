package service

import (
	"bytes"
	"context"
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
	instrument(f.mux, "GET /v1/metrics", "metrics", serveMetrics)
	instrument(f.mux, "GET /v1/scenarios", "scenarios", f.serveScenarios)
	instrument(f.mux, "POST /v1/scenarios", "admit", f.serveAdmit)
	instrument(f.mux, "GET /v1/scenarios/{id}", "scenario", f.serveScenario)
	// Build progress deliberately bypasses the tenant resolver: asking
	// how a build is going must answer instantly, never trigger the
	// build or queue behind it.
	instrument(f.mux, "GET /v1/scenarios/{id}/build", "build", f.serveBuildProgress)
	instrument(f.mux, "GET /v1/build", "build", f.serveBuildProgress)
	// Every per-scenario endpoint is mounted twice from the one route
	// table: under its scenario root, and un-prefixed as the DefaultID
	// alias (scenarioID supplies the id the pattern lacks).
	for _, rt := range scenarioRoutes {
		h := f.tenant(rt.h)
		instrument(f.mux, rt.method+" /v1/scenarios/{id}"+rt.path, rt.name, h)
		if rt.name == "healthz" {
			h = f.serveHealthz // falls back to the fleet summary
		}
		instrument(f.mux, rt.method+" /v1"+rt.path, rt.name, h)
	}
	f.mux.HandleFunc("/", serveNotFound)
	return f
}

// Handler returns the fleet's http.Handler (the /v1 API).
func (f *Fleet) Handler() http.Handler { return f.mux }

// Store returns the underlying scenario store.
func (f *Fleet) Store() *Store { return f.store }

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
func (f *Fleet) tenant(h func(*Server, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		srv, err := f.store.Get(r.Context(), scenarioID(r))
		if err != nil {
			failStore(w, err)
			return
		}
		h(srv, w, r)
	}
}

// failStore maps a store resolution failure to a status: a shed build
// is 429 with Retry-After, unknown id is 404, a context death while
// waiting on a build is 504, a failed build 500.
func failStore(w http.ResponseWriter, err error) {
	var oe *OverloadError
	if errors.As(err, &oe) {
		failOverload(w, oe)
		return
	}
	switch {
	case errors.Is(err, ErrUnknownScenario):
		fail(w, http.StatusNotFound, apiErr(CodeNotFound, err.Error()))
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		fail(w, http.StatusGatewayTimeout, apiErr(CodeTimeout, "scenario build wait: "+err.Error()))
	default:
		failInternal(w, err)
	}
}

// serveHealthz is GET /v1/healthz: the DefaultID tenant's health body
// when that id is registered (the alias contract), the store summary
// otherwise — chosen from what the store holds, not from a mode.
func (f *Fleet) serveHealthz(w http.ResponseWriter, r *http.Request) {
	srv, err := f.store.Get(r.Context(), DefaultID)
	if err == nil {
		srv.serveHealthz(w, r)
		return
	}
	if !errors.Is(err, ErrUnknownScenario) {
		failStore(w, err)
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
	writeEnvelope(w, http.StatusOK, "health", data)
}

func (f *Fleet) serveScenarios(w http.ResponseWriter, _ *http.Request) {
	infos := f.store.Infos()
	data := ScenariosData{Count: len(infos), Scenarios: infos}
	for _, in := range infos {
		if in.Built {
			data.Built++
		}
	}
	writeEnvelope(w, http.StatusOK, "scenarios", data)
}

// serveBuildProgress is GET /v1/scenarios/{id}/build (and /v1/build):
// a phase/percent snapshot of the scenario's build. Like /v1/metrics it
// reports history, so it is never cached and is exempt from the
// byte-identity contract.
func (f *Fleet) serveBuildProgress(w http.ResponseWriter, r *http.Request) {
	d, err := f.store.BuildProgress(scenarioID(r))
	if err != nil {
		failStore(w, err)
		return
	}
	writeEnvelope(w, http.StatusOK, "build", d)
}

func (f *Fleet) serveScenario(w http.ResponseWriter, r *http.Request) {
	info, err := f.store.Info(r.PathValue("id"))
	if err != nil {
		failStore(w, err)
		return
	}
	writeEnvelope(w, http.StatusOK, "scenario", ScenarioData{Scenario: info})
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
func (f *Fleet) serveAdmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		fail(w, http.StatusBadRequest, apiErr(CodeBadBody, "read spec body: "+err.Error()))
		return
	}
	if len(body) > maxSpecBytes {
		fail(w, http.StatusRequestEntityTooLarge, apiErr(CodeTooLarge, "spec document exceeds 1 MiB"))
		return
	}
	format, err := specFormat(r, body)
	if err != nil {
		fail(w, http.StatusBadRequest, apiErr(CodeBadParam, err.Error()))
		return
	}
	sp, err := spec.Parse("request body", body, format, nil)
	if err != nil {
		fail(w, http.StatusBadRequest, apiErr(CodeBadBody, "invalid spec: "+err.Error()))
		return
	}
	exp, err := sp.Expansion()
	if err != nil {
		fail(w, http.StatusBadRequest, apiErr(CodeBadBody, "invalid spec: "+err.Error()))
		return
	}
	if err := f.store.Register(exp, "api"); err != nil {
		fail(w, http.StatusConflict, apiErr(CodeConflict, err.Error()))
		return
	}
	info, err := f.store.Info(exp.Name)
	if err != nil {
		fail(w, http.StatusInternalServerError, apiErr(CodeInternal, err.Error()))
		return
	}
	writeEnvelope(w, http.StatusCreated, "scenario", ScenarioData{Scenario: info})
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
