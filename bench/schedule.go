package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"routelab/internal/asn"
	"routelab/internal/classify"
	"routelab/internal/service"
	"routelab/internal/topology"
	"routelab/internal/whatif"
)

// endpoints are the request families of the load mix, in the order
// their per-endpoint metrics are reported.
var endpoints = []string{"healthz", "as", "classify", "experiments", "alternates", "whatif"}

const (
	epHealthz = iota
	epAS
	epClassify
	epExperiments
	epAlternates
	epWhatIf
)

// envelopeKinds is the envelope kind each endpoint must answer with.
var envelopeKinds = []string{"health", "as", "classify", "experiment", "alternates", "whatif"}

// request is one scheduled call. body makes it a POST.
type request struct {
	endpoint int
	path     string
	body     string
}

// key identifies the response-cache entry a request lands on.
func (q request) key() string { return q.path + "\x00" + q.body }

func (q request) method() string {
	if q.body != "" {
		return http.MethodPost
	}
	return http.MethodGet
}

// cacheEntries is routelabd's default response-cache size, which both
// schedules are sized against.
const cacheEntries = 256

// hotKeyLimit caps the distinct cache keys of the serve_hot schedule,
// under half the cache.
const hotKeyLimit = 120

// missWindow is the span of consecutive serve_miss requests inside
// which no cache key may repeat. It is twice the cache so that an
// entry is evicted before its key comes round again, even when
// concurrent clients reorder neighbouring requests.
const missWindow = 2 * cacheEntries

// catalog is what the generator knows about one tenant: trace ids
// harvested over the HTTP API, and the ASes and adjacencies of the
// tenant's topology.
type catalog struct {
	id     string
	origin asn.ASN // the PEERING testbed's AS, which no delta may poison
	traces []int
	ases   []asn.ASN // every AS but the origin
	links  [][2]asn.ASN
}

// adjacencies lists every link once, in AS order.
func adjacencies(topo *topology.Topology) [][2]asn.ASN {
	var out [][2]asn.ASN
	for _, a := range topo.ASNs() {
		for _, n := range topo.Neighbors(a) {
			if a < n.ASN {
				out = append(out, [2]asn.ASN{a, n.ASN})
			}
		}
	}
	return out
}

func newCatalog(id string, topo *topology.Topology, traces []int) catalog {
	c := catalog{id: id, origin: topo.Names["peering"], traces: traces, links: adjacencies(topo)}
	for _, a := range topo.ASNs() {
		if a != c.origin {
			c.ases = append(c.ases, a)
		}
	}
	return c
}

func (c catalog) root() string { return "/v1/scenarios/" + c.id }

// whatifRequest is a POST of one delta, or of a batch of them, to
// tenant c.
func whatifRequest(c catalog, ds ...whatif.Delta) request {
	req := service.WhatIfRequest{Schema: service.WhatIfSchema}
	if len(ds) == 1 {
		req.Delta = &ds[0]
	} else {
		req.Deltas = ds
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings and ints
	}
	return request{epWhatIf, c.root() + "/whatif", string(b)}
}

// refinementParams are the classify variants: every refinement, and
// "" for all of them in one response.
func refinementParams() []string {
	out := []string{""}
	for _, r := range classify.Refinements {
		out = append(out, r.String())
	}
	return out
}

func classifyPath(c catalog, trace int, refinement string) string {
	p := fmt.Sprintf("%s/classify?trace=%d", c.root(), trace)
	if refinement != "" {
		p += "&refinement=" + refinement
	}
	return p
}

// hotSchedule is n requests over a fixed set of at most hotKeyLimit
// cache keys, mixed healthz 10 %, as 30 %, classify 30 %, experiments
// 20 %, alternates 5 %, whatif 5 %. The seed picks the keys and the
// order.
func hotSchedule(seed int64, cats []catalog, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	pools := make([][]request, len(endpoints))
	perTenant := func(total int) int { return max(total/len(cats), 1) }
	for _, c := range cats {
		pools[epHealthz] = append(pools[epHealthz], request{epHealthz, c.root() + "/healthz", ""})
		for _, i := range rng.Perm(len(c.ases))[:min(perTenant(36), len(c.ases))] {
			pools[epAS] = append(pools[epAS], request{epAS, c.root() + "/as/" + c.ases[i].String(), ""})
		}
		for _, i := range rng.Perm(len(c.traces))[:min(perTenant(36), len(c.traces))] {
			pools[epClassify] = append(pools[epClassify], request{epClassify, classifyPath(c, c.traces[i], ""), ""})
		}
		for _, name := range []string{"table1", "figure2", "figure3"} {
			pools[epExperiments] = append(pools[epExperiments], request{epExperiments, c.root() + "/experiments/" + name, ""})
		}
		for _, i := range rng.Perm(len(c.ases))[:min(perTenant(6), len(c.ases))] {
			a := c.ases[i].String()
			pools[epAlternates] = append(pools[epAlternates], request{epAlternates, c.root() + "/alternates?target=" + a, ""})
			pools[epWhatIf] = append(pools[epWhatIf], whatifRequest(c,
				whatif.Delta{Kind: whatif.Poison, Poisoned: []string{a}}, whatif.Delta{Kind: whatif.Prepend, Prepend: 3}))
		}
	}
	weights := []int{epHealthz: 10, epAS: 30, epClassify: 30, epExperiments: 20, epAlternates: 5, epWhatIf: 5}
	out := make([]request, n)
	for i := range out {
		pool := pools[pickWeighted(rng, weights)]
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

func pickWeighted(rng *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	x := rng.Intn(total)
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// missSchedule is n requests that never repeat a cache key inside
// missWindow consecutive requests: classify over every harvested trace
// and refinement 40 %, alternates over distinct targets 20 %, what-if
// over distinct deltas 20 %, experiments with a distinct seed= each
// 20 %. Each family walks a seeded permutation of its keys.
func missSchedule(seed int64, cats []catalog, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	pools := make([][]request, len(endpoints))
	for _, c := range cats {
		for _, t := range c.traces {
			for _, ref := range refinementParams() {
				pools[epClassify] = append(pools[epClassify], request{epClassify, classifyPath(c, t, ref), ""})
			}
		}
		for _, a := range c.ases {
			pools[epAlternates] = append(pools[epAlternates], request{epAlternates, c.root() + "/alternates?target=" + a.String(), ""})
			pools[epWhatIf] = append(pools[epWhatIf], whatifRequest(c, whatif.Delta{Kind: whatif.Poison, Poisoned: []string{a.String()}}))
		}
		for i, l := range c.links {
			lo, hi := l[0].String(), l[1].String()
			pools[epWhatIf] = append(pools[epWhatIf],
				whatifRequest(c, whatif.Delta{Kind: whatif.LinkFailure, A: lo, B: hi}),
				whatifRequest(c, whatif.Delta{Kind: whatif.LocalPref, At: lo, From: hi, Pref: 50 + 100*(i%4)}))
			if l[0] == c.origin || l[1] == c.origin {
				continue // the origin cannot be poisoned
			}
			// A batch: the link's two ends poisoned together, and 1..8
			// prepends, each on its own fork of the base.
			pools[epWhatIf] = append(pools[epWhatIf], whatifRequest(c,
				whatif.Delta{Kind: whatif.Poison, Poisoned: []string{lo, hi}},
				whatif.Delta{Kind: whatif.Prepend, Prepend: 1 + i%8}))
		}
	}
	for _, pool := range pools {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	expNames := []string{"figure1", "table2", "figure2"}
	weights := []int{epHealthz: 0, epAS: 0, epClassify: 40, epExperiments: 20, epAlternates: 20, epWhatIf: 20}
	cursor := make([]int, len(endpoints))
	last := make(map[string]int) // key -> index of its latest use
	out := make([]request, 0, n)
	for len(out) < n {
		ep := pickWeighted(rng, weights)
		var q request
		if ep == epExperiments {
			j := cursor[ep]
			c := cats[j%len(cats)]
			q = request{ep, fmt.Sprintf("%s/experiments/%s?seed=%d", c.root(), expNames[(j/len(cats))%len(expNames)], j), ""}
		} else {
			q = pools[ep][cursor[ep]%len(pools[ep])]
		}
		if at, used := last[q.key()]; used && len(out)-at < missWindow {
			// This family's keys have come round too soon; draw again.
			// Experiments never repeat, so the loop always advances.
			continue
		}
		cursor[ep]++
		last[q.key()] = len(out)
		out = append(out, q)
	}
	return out
}
