// Package service is the query layer over a fleet of warm scenarios: a
// Store that registers scenario specs, builds each sealed world on
// first use and keeps the most recently served ones resident within one
// byte budget (StoreConfig.MaxScenarioBytes), and a Fleet — the one
// http.Handler — serving classification, alternate-route, experiment,
// what-if and topology lookups per scenario as versioned JSON under
// /v1/scenarios/{id}/..., with the un-prefixed /v1/... routes aliasing
// the scenario named DefaultID. cmd/routelabd wraps it in a
// long-running server; one world is a fleet of one.
//
// # Determinism contract, extended to serve time
//
// Every data endpoint is a pure function of (sealed scenario, request
// parameters): responses are byte-identical across requests, across
// worker counts, and across any mix of concurrent clients. The
// response cache — one for the fleet, reached by each tenant only
// through its own partition, so an entry always carries the scenario it
// belongs to — stores fully-marshaled bodies, so a cache hit is
// trivially identical to the miss that produced it; a cache miss
// recomputes a deterministic value and marshals it with encoding/json
// (struct fields in declaration order, map keys sorted). /v1/metrics
// is the one exception — it reports the obs side channel, which
// depends on history — and is therefore never cached.
//
// # Concurrency
//
// Request admission is bounded by a parallel.Gate; duplicate in-flight
// requests for the same cache key are coalesced (one computation, many
// waiters; a waiter whose own context is live retries when the
// computation died of its leader's cancellation). Computations only read the sealed Scenario and the
// synchronized classify.Context caches; nothing mutates shared state,
// so any interleaving yields the same bytes. The alternates and what-if
// endpoints mutate a copy-on-write Fork of the scenario's anycast
// bgp.Base, taken inline on the request's goroutine: one
// bgp.fork.calls per discovery or delta. The package starts no
// goroutine, so there is nothing to stop or join at shutdown or
// eviction (internal/lint's TestRepoIsClean fails on any go statement
// here).
package service

import (
	"encoding/json"
	"fmt"
	"io"

	"routelab/internal/obs"
	"routelab/internal/whatif"
)

// Schema identifies the response envelope shape; bump the suffix on
// breaking changes so consumers fail loudly instead of misparsing.
const Schema = "routelab-api/v1"

// Kinds lists the envelope kinds the API emits.
var Kinds = []string{"health", "metrics", "classify", "alternates", "experiment", "as", "whatif", "scenarios", "scenario", "build", "error"}

// Envelope is the versioned wrapper around every response body.
type Envelope struct {
	Schema string          `json:"schema"`
	Kind   string          `json:"kind"`
	Data   json.RawMessage `json:"data"`
}

// Validate checks the envelope the same way obs.BenchReport.Validate
// checks bench reports: schema must match exactly, the kind must be
// one this API emits, and the data must be a non-empty JSON value.
func (e Envelope) Validate() error {
	if e.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", e.Schema, Schema)
	}
	known := false
	for _, k := range Kinds {
		if e.Kind == k {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown kind %q (have %v)", e.Kind, Kinds)
	}
	if len(e.Data) == 0 {
		return fmt.Errorf("kind %q: empty data", e.Kind)
	}
	if !json.Valid(e.Data) {
		return fmt.Errorf("kind %q: data is not valid JSON", e.Kind)
	}
	return nil
}

// ReadEnvelope decodes and validates one envelope from r.
func ReadEnvelope(r io.Reader) (Envelope, error) {
	var e Envelope
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return e, err
	}
	return e, e.Validate()
}

// HealthData is the /v1/healthz payload: a static description of the
// scenario the server is holding (static so the endpoint stays
// deterministic — liveness is the 200 itself).
type HealthData struct {
	Status      string   `json:"status"`
	Seed        int64    `json:"seed"`
	Scale       float64  `json:"scale"`
	ASes        int      `json:"ases"`
	Links       int      `json:"links"`
	Probes      int      `json:"probes"`
	Traces      int      `json:"traces"`
	Experiments []string `json:"experiments"`
}

// ClassifyDecision is one routing decision judged under each requested
// refinement (refinement name -> category).
type ClassifyDecision struct {
	At         string            `json:"at"`
	Via        string            `json:"via"`
	Prefix     string            `json:"prefix"`
	DstAS      string            `json:"dst_as"`
	RestLen    int               `json:"rest_len"`
	Categories map[string]string `json:"categories"`
}

// ClassifyData is the /v1/classify payload: every decision of one
// measured traceroute.
type ClassifyData struct {
	Trace     int                `json:"trace"`
	SrcAS     string             `json:"src_as"`
	DstAS     string             `json:"dst_as"`
	Prefix    string             `json:"prefix"`
	ASPath    []string           `json:"as_path"`
	Decisions []ClassifyDecision `json:"decisions"`
}

// AlternateStepData is one route of a discovered preference order.
type AlternateStepData struct {
	NextHop  string   `json:"next_hop"`
	Path     string   `json:"path"`
	Poisoned []string `json:"poisoned,omitempty"`
	Inferred string   `json:"inferred"`
}

// AlternatesData is the /v1/alternates payload: the §3.2 discovery run
// against one target, judged under the §3.3 properties.
type AlternatesData struct {
	Target        string              `json:"target"`
	Prefix        string              `json:"prefix"`
	Announcements int                 `json:"announcements"`
	Exhausted     bool                `json:"exhausted"`
	Verdict       string              `json:"verdict"`
	Steps         []AlternateStepData `json:"steps"`
}

// ASData is the /v1/as/{asn} payload: the measurement-plane view of
// one AS (inferred neighbors), plus its ground-truth class for lab
// convenience.
type ASData struct {
	ASN               string         `json:"asn"`
	Class             string         `json:"class"`
	Country           string         `json:"country"`
	Names             []string       `json:"names,omitempty"`
	Prefixes          []string       `json:"prefixes,omitempty"`
	InferredDegree    int            `json:"inferred_degree"`
	InferredNeighbors map[string]int `json:"inferred_neighbors"`
}

// ExperimentData is the /v1/experiments/{name} payload. Result is the
// experiment's structured outcome (see internal/experiments).
type ExperimentData struct {
	Name   string `json:"name"`
	Seed   int64  `json:"seed"`
	Result any    `json:"result"`
}

// MetricsData is the /v1/metrics payload.
type MetricsData struct {
	Metrics obs.Snapshot `json:"metrics"`
}

// ScenarioInfo describes one registered scenario of the fleet: its
// spec identity plus whether a sealed build is currently resident in
// the store's LRU.
type ScenarioInfo struct {
	ID          string   `json:"id"`
	Description string   `json:"description,omitempty"`
	Profile     string   `json:"profile"`
	Overlays    []string `json:"overlays,omitempty"`
	// Origin is where the spec came from: the file path for -scenario-dir
	// and -spec registrations, "flags" for a flag-built world, "api" for
	// POST /v1/scenarios admissions.
	Origin string  `json:"origin"`
	Seed   int64   `json:"seed"`
	Scale  float64 `json:"scale"`
	Built  bool    `json:"built"`
	// SizeBytes is the resident-cost estimate of the sealed build (the
	// store's byte-budget charge); 0 unless Built.
	SizeBytes int64 `json:"size_bytes,omitempty"`
}

// ScenariosData is the GET /v1/scenarios payload: every registered
// scenario, sorted by id.
type ScenariosData struct {
	Count     int            `json:"count"`
	Built     int            `json:"built"`
	Scenarios []ScenarioInfo `json:"scenarios"`
}

// ScenarioData is the per-scenario payload: GET /v1/scenarios/{id} and
// the POST /v1/scenarios admission response.
type ScenarioData struct {
	Scenario ScenarioInfo `json:"scenario"`
}

// FleetHealthData is the /v1/healthz payload of a fleet with no
// DefaultID scenario: the store summary instead of one scenario's
// shape (liveness is the 200 itself).
type FleetHealthData struct {
	Status    string   `json:"status"`
	Scenarios int      `json:"scenarios"`
	Built     int      `json:"built"`
	IDs       []string `json:"ids"`
}

// WhatIfSchema identifies the POST /v1/whatif request document shape;
// bump the suffix on breaking changes (same contract as Schema).
const WhatIfSchema = "routelab-whatif/v1"

// MaxWhatIfDeltas bounds one batched what-if request: each entry costs
// a fork plus a reconvergence, so the cap keeps a single request from
// monopolizing the admission gate.
const MaxWhatIfDeltas = 32

// WhatIfRequest is the POST /v1/whatif request document: one delta or a
// batch. Exactly one of Delta and Deltas must be set; every batch entry
// is evaluated on its own fork of the same frozen anycast base, so the
// entries are independent counterfactuals, not a cumulative script.
type WhatIfRequest struct {
	Schema string `json:"schema"`
	// Prefix selects the testbed prefix to evaluate against; empty
	// selects the scenario's first.
	Prefix string         `json:"prefix,omitempty"`
	Delta  *whatif.Delta  `json:"delta,omitempty"`
	Deltas []whatif.Delta `json:"deltas,omitempty"`
}

// Validate checks the document's wire shape: the schema tag, the
// delta-XOR-deltas contract, the batch cap, and that every delta names
// a known kind. Topology-dependent validation (AS existence, adjacency)
// happens at whatif.Compile time inside the server; this is the part
// cmd/apicheck can verify offline.
func (req WhatIfRequest) Validate() error {
	if req.Schema != WhatIfSchema {
		return fmt.Errorf("schema %q, want %q", req.Schema, WhatIfSchema)
	}
	switch {
	case req.Delta != nil && len(req.Deltas) > 0:
		return fmt.Errorf("delta and deltas are mutually exclusive")
	case req.Delta == nil && len(req.Deltas) == 0:
		return fmt.Errorf("missing delta (or deltas)")
	case len(req.Deltas) > MaxWhatIfDeltas:
		return fmt.Errorf("%d deltas exceed the batch cap of %d", len(req.Deltas), MaxWhatIfDeltas)
	}
	for i, d := range req.All() {
		known := false
		for _, k := range whatif.Kinds {
			if d.Kind == k {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("delta %d: unknown kind %q (have %v)", i, d.Kind, whatif.Kinds)
		}
	}
	return nil
}

// All returns the requested deltas with the single form normalized to a
// one-entry batch.
func (req WhatIfRequest) All() []whatif.Delta {
	if req.Delta != nil {
		return []whatif.Delta{*req.Delta}
	}
	return req.Deltas
}

// WhatIfData is the whatif envelope payload: one structured diff per
// requested delta, in request order.
type WhatIfData struct {
	Prefix  string        `json:"prefix"`
	Origin  string        `json:"origin"`
	Deltas  int           `json:"deltas"`
	Results []whatif.Diff `json:"results"`
}

// Validate checks a whatif payload's internal consistency — what
// cmd/apicheck verifies about served bodies beyond the envelope.
func (d WhatIfData) Validate() error {
	if d.Prefix == "" || d.Origin == "" {
		return fmt.Errorf("missing prefix/origin (%q/%q)", d.Prefix, d.Origin)
	}
	if d.Deltas != len(d.Results) {
		return fmt.Errorf("deltas %d != results %d", d.Deltas, len(d.Results))
	}
	for i, r := range d.Results {
		if r.Delta == "" || r.Kind == "" {
			return fmt.Errorf("result %d: missing delta/kind", i)
		}
		if r.Affected != len(r.Changes) || r.Affected != r.Gained+r.Lost+r.Moved {
			return fmt.Errorf("result %d (%s): affected %d, changes %d, gained+lost+moved %d",
				i, r.Delta, r.Affected, len(r.Changes), r.Gained+r.Lost+r.Moved)
		}
	}
	return nil
}

// ErrorData is the error-envelope payload. Code is the stable
// machine-readable error class (see the Code* constants); Error the
// human-readable detail.
type ErrorData struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
