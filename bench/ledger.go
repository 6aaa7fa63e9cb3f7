package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

const resultSchema = "routelab-ledger/v1"

// metricDef names one metric of the ledger. BENCHMARK.json lists the
// same names with their direction and bound; TestLedgerMatchesBenchmarkJSON
// keeps the two in step.
type metricDef struct{ Name, Unit string }

// endToEnd is what a user of routelab sees. Every workload reports
// every one of them: an operation is one build + `all` + render pass
// on the batch workloads and one HTTP request on the serve workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced run's breakdown, one group per package. A
// metric reads 0 on a workload that does not exercise its layer, which
// is how "serve_hot bypasses bgp" shows in the numbers.
var perLayer = []metricDef{
	{"spec.expand_ms", "ms"},
	{"topology.generate_s", "s"}, {"topology.ases", "count"}, {"topology.links", "count"}, {"topology.prefixes", "count"},
	{"bgp.rib_s", "s"}, {"bgp.rib_share", "ratio"}, {"bgp.events", "count"}, {"bgp.changes", "count"},
	{"bgp.converge_calls", "count"}, {"bgp.diverged", "count"}, {"bgp.ns_per_event", "ns"}, {"bgp.rib_routes", "count"},
	{"bgp.intern_hit_ratio", "ratio"}, {"bgp.fork_calls", "count"}, {"bgp.fork_row_clones", "count"},
	{"bgp.prefix_p50_us", "us"}, {"bgp.prefix_p99_us", "us"}, {"bgp.fork_reconverge_us", "us"},
	{"parallel.rib_utilization", "ratio"}, {"parallel.workers", "count"},
	{"vantage.snapshots_s", "s"},
	{"inference.infer_s", "s"}, {"inference.edges", "count"},
	{"atlas.deploy_s", "s"}, {"atlas.probes", "count"},
	{"traceroute.campaign_s", "s"}, {"traceroute.traces_issued", "count"}, {"traceroute.traces_per_s", "1/s"},
	{"scenario.build_s", "s"}, {"scenario.build_share", "ratio"}, {"scenario.decisions", "count"},
	{"classify.figure1_s", "s"}, {"classify.ns_per_decision", "ns"},
	{"gaorexford.compute_us", "us"},
	{"peering.alternates_s", "s"}, {"peering.magnet_s", "s"},
	{"whatif.eval_us", "us"},
	{"experiments.all_s", "s"}, {"experiments.ablations_s", "s"}, {"experiments.alternates_s", "s"},
	{"experiments.casestudies_s", "s"}, {"experiments.figure1_s", "s"}, {"experiments.prediction_s", "s"},
	{"experiments.render_s", "s"},
	{"service.handler_p50_us", "us"}, {"service.handler_p99_us", "us"}, {"service.cache_hit_ratio", "ratio"},
	{"service.sheds", "count"}, {"service.errors", "count"},
	{"service.healthz.p50_ms", "ms"}, {"service.healthz.p99_ms", "ms"},
	{"service.as.p50_ms", "ms"}, {"service.as.p99_ms", "ms"},
	{"service.classify.p50_ms", "ms"}, {"service.classify.p99_ms", "ms"},
	{"service.experiments.p50_ms", "ms"}, {"service.experiments.p99_ms", "ms"},
	{"service.alternates.p50_ms", "ms"}, {"service.alternates.p99_ms", "ms"},
	{"service.whatif.p50_ms", "ms"}, {"service.whatif.p99_ms", "ms"},
	{"service.store_build_s", "s"}, {"service.resident_mb", "MB"},
	{"net.overhead_p50_us", "us"},
	{"open.p50_ms", "ms"}, {"open.p99_ms", "ms"}, {"open.slo_miss_ratio", "ratio"},
	{"gen.lag_p99_ms", "ms"}, {"gen.sent", "count"}, {"gen.due", "count"},
	{"mem.alloc_mb_per_pass", "MB"}, {"mem.mallocs_per_pass", "count"}, {"mem.gc_cycles", "count"}, {"mem.gc_pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"}, {"trace.attributed_share", "ratio"},
}

// Metric is one measured value.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Check is one output check; a failed check fails the command.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is one run of one workload: bench/out/<workload>.json, or
// <workload>.traced.json for the traced run.
type Result struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Quick    bool   `json:"quick"`
	Traced   bool   `json:"traced"`
	Env      Env    `json:"env"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`

	Metrics []Metric `json:"metrics"`
	Checks  []Check  `json:"checks"`
	Notes   []string `json:"notes,omitempty"`

	// Digest is the SHA-256 of the rendered `all` report (batch).
	Digest string `json:"digest,omitempty"`
	// Counts are the counters that must repeat exactly for one seed.
	Counts map[string]int64 `json:"counts,omitempty"`
	// LayerSelfS is span self time per layer, in seconds (traced).
	LayerSelfS map[string]float64 `json:"layer_self_s,omitempty"`
}

// values collects a run's metrics by name before they are laid out in
// ledger order.
type values map[string]float64

// metrics lays v out in the order of defs. A name v holds that defs
// does not is a bug in the benchmark; a name v lacks reads 0.
func (v values) metrics(defs []metricDef) []Metric {
	known := make(map[string]bool, len(defs))
	out := make([]Metric, 0, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		out = append(out, Metric{Name: d.Name, Value: v[d.Name], Unit: d.Unit})
	}
	for name := range v {
		if !known[name] {
			panic("bench: metric " + name + " is not in the ledger")
		}
	}
	return out
}

func (r *Result) check(name string, ok bool, format string, args ...any) {
	c := Check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// seal derives Correct from the checks and the failure count.
func (r *Result) seal() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
}

func (r *Result) value(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// print writes every metric as `name value unit`, then the checks and
// notes, then — as the last line — the one JSON object a caller parses.
func (r *Result) print(w io.Writer) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%d traced=%v quick=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced, r.Quick)
	fmt.Fprintf(w, "# env nproc=%d gomaxprocs=%d %s calib_ms=%.1f calib_mem_ms=%.1f..%.1f loadavg=%q..%q\n",
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.CalibMS, r.Env.CalibMemMS, r.Env.CalibMemEndMS, r.Env.LoadavgStart, r.Env.LoadavgEnd)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %.6g %s\n", m.Name, m.Value, m.Unit)
	}
	if len(r.LayerSelfS) > 0 {
		layers := make([]string, 0, len(r.LayerSelfS))
		for l := range r.LayerSelfS {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "# self %s %.4f s\n", l, r.LayerSelfS[l])
		}
	}
	for _, c := range r.Checks {
		if c.OK {
			fmt.Fprintf(w, "# check ok   %s\n", c.Name)
		} else {
			fmt.Fprintf(w, "# check FAIL %s: %s\n", c.Name, c.Detail)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# note %s\n", n)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for _, m := range r.Metrics {
		line.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Fprintf(w, "%s\n", b)
}

// outPath names a file under bench/out, creating the directory.
func outPath(name string) (string, error) {
	dir := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, name), nil
}

func (r *Result) fileName() string {
	if r.Traced {
		return r.Workload + ".traced.json"
	}
	return r.Workload + ".json"
}

func (r *Result) write() error {
	path, err := outPath(r.fileName())
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(name string) (*Result, error) {
	data, err := os.ReadFile(filepath.Join(benchDir(), "out", name))
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &r, nil
}

// benchDir finds the benchmark's directory from the repository root
// (`go run ./bench`) or from inside it (`go test`).
func benchDir() string {
	for _, dir := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(dir, "worlds", "batch.yaml")); err == nil {
			return dir
		}
	}
	return "bench"
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark reads back:
// the bounds -repeat judges agreement by, and the names the tests
// compare with the ledger above.
type benchmarkJSON struct {
	RunSeconds int        `json:"run_seconds"`
	Workloads  []declared `json:"workloads"`
	EndToEnd   []declared `json:"end_to_end"`
	PerLayer   []declared `json:"per_layer"`
}

// declared is one workload or metric as BENCHMARK.json declares it.
type declared struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readBenchmarkJSON() (*benchmarkJSON, error) {
	data, err := os.ReadFile(filepath.Join(benchDir(), "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}
