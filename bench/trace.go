package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span is one traced interval, written to bench/out/trace_<workload>.json.
// Op is the pass number (batch) or the request id (serve); the client
// and handler spans of one request share it. Parent is 0 for a root.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: serve runs record from every client and handler
// goroutine, and obs stage listeners may fire on worker goroutines.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
	// open holds, per stage name, the indexes of spans begun by the
	// stage listener and not yet ended (a stack: stages of one name nest
	// or follow each other, they do not interleave).
	open map[string][]int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), open: make(map[string][]int)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a finished span and returns its id.
func (r *recorder) add(op int64, layer, name string, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Op: op, Layer: layer, Name: name, StartNS: start, EndNS: end})
	return id
}

// call runs fn inside a span: the benchmark's wrapper around one call
// into a layer.
func (r *recorder) call(op int64, layer, name string, fn func()) {
	start := r.now()
	fn()
	r.add(op, layer, name, start, r.now())
}

// stageListener returns an obs.OnStage listener that turns the
// program's own stage boundaries into spans of pass op.
func (r *recorder) stageListener(op int64) func(name string, begin bool) {
	return func(name string, begin bool) {
		t := r.now()
		r.mu.Lock()
		defer r.mu.Unlock()
		if begin {
			r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Op: op, Layer: layerOf(name), Name: name, StartNS: t, EndNS: -1})
			r.open[name] = append(r.open[name], len(r.spans)-1)
			return
		}
		st := r.open[name]
		if len(st) == 0 {
			return // an end whose begin predates the listener
		}
		r.spans[st[len(st)-1]].EndNS = t
		r.open[name] = st[:len(st)-1]
	}
}

// requestHeader carries the request id from the load generator to the
// benchmark's handler middleware.
const requestHeader = "X-Bench-Request"

// middleware wraps the fleet handler with a span per request, named
// after the request id the client sent.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		op, _ := strconv.ParseInt(req.Header.Get(requestHeader), 10, 64)
		start := r.now()
		next.ServeHTTP(w, req)
		r.add(op, "service", "handler", start, r.now())
	})
}

// finished returns the recorded spans that have an end.
func (r *recorder) finished() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.EndNS >= s.StartNS {
			out = append(out, s)
		}
	}
	return out
}

// parentByContainment gives every span of one op the smallest span of
// the same op that contains it in time. Stage spans begin on the
// goroutine that runs the pass, so containment is the call stack; a
// stage that began on a worker would still land under the stage that
// was running, instead of under a guessed parent.
func parentByContainment(spans []Span) {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := spans[idx[a]], spans[idx[b]]
		if x.Op != y.Op {
			return x.Op < y.Op
		}
		if x.StartNS != y.StartNS {
			return x.StartNS < y.StartNS
		}
		if x.EndNS != y.EndNS {
			return x.EndNS > y.EndNS
		}
		return x.ID < y.ID
	})
	var stack []int
	for _, i := range idx {
		s := &spans[i]
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.Op == s.Op && top.StartNS <= s.StartNS && s.EndNS <= top.EndNS {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			s.Parent = spans[stack[len(stack)-1]].ID
		}
		stack = append(stack, i)
	}
}

// parentHandlersByOp hangs each handler span under the client span of
// the same request id.
func parentHandlersByOp(spans []Span) {
	client := make(map[int64]int, len(spans)/2)
	for _, s := range spans {
		if s.Layer == "client" {
			client[s.Op] = s.ID
		}
	}
	for i := range spans {
		if spans[i].Layer == "service" {
			spans[i].Parent = client[spans[i].Op]
		}
	}
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its children cover. Children that overlap each
// other (concurrent work) are counted once.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfByLayer sums span self times per layer, in seconds.
func selfByLayer(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += float64(self[s.ID]) / 1e9
	}
	return out
}

// stageLayers maps the program's stage names to the package that does
// the work. Names not listed fall to the stage's own prefix.
var stageLayers = map[string]string{
	"scenario/build":                 "scenario",
	"scenario/topology":              "topology",
	"scenario/converge-historical":   "bgp",
	"scenario/converge-current":      "bgp",
	"bgp/compute-rib":                "bgp",
	"scenario/snapshots":             "vantage",
	"scenario/inference":             "inference",
	"scenario/atlas":                 "atlas",
	"scenario/campaign":              "traceroute",
	"scenario/lookingglass":          "lookingglass",
	"scenario/testbed":               "peering",
	"scenario/magnet":                "peering",
	"scenario/alternates":            "peering",
	"experiments/figure1-breakdowns": "classify",
	"experiments/threshold-ablation": "experiments",
}

func layerOf(stage string) string {
	if l, ok := stageLayers[stage]; ok {
		return l
	}
	prefix, _, _ := strings.Cut(stage, "/")
	if prefix == "experiment" {
		return "experiments"
	}
	return prefix
}

// spanTotal sums the durations, in seconds, of the spans with the
// given name.
func spanTotal(spans []Span, name string) float64 {
	t := int64(0)
	for _, s := range spans {
		if s.Name == name {
			t += s.dur()
		}
	}
	return float64(t) / 1e9
}

// writeTrace writes a traced run's spans to bench/out/trace_<workload>.json.
func writeTrace(workload string, spans []Span) error {
	path, err := outPath("trace_" + workload + ".json")
	if err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
