package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"routelab/internal/experiments"
	"routelab/internal/obs"
	"routelab/internal/scenario"
	"routelab/internal/spec"
)

// goldenSeed is the seed whose report digest is committed under
// bench/golden/.
const goldenSeed = 2015

// exactCounts are the obs counters that must come out the same on
// every pass of one seed, whatever the worker count.
var exactCounts = []string{
	"bgp.converge.events", "bgp.converge.changes", "bgp.fork.calls",
	"scenario.decisions", "scenario.traces.issued",
}

func worldPath(quick bool) string {
	name := "batch.yaml"
	if quick {
		name = "quick.yaml"
	}
	return filepath.Join(benchDir(), "worlds", name)
}

// loadWorld expands a world spec into the config one pass builds, and
// reports how long the expansion took. The world's seed is the spec's:
// at scale 0.3 some seeds (11 and 13, for two) leave hundreds of
// prefixes unconverged and take four times as long to build, so the
// routed world is one that is known to converge, and -seed goes to the
// experiments' random streams instead.
func loadWorld(path string, workers int) (scenario.Config, float64, error) {
	t0 := time.Now()
	exp, err := spec.Expand(path, nil)
	ms := float64(time.Since(t0)) / 1e6
	if err != nil {
		return scenario.Config{}, 0, err
	}
	cfg := exp.Config
	cfg.RoutingWorkers = workers
	return cfg, ms, nil
}

type memDelta struct {
	allocMB, mallocs, gcCycles, gcPauseMS float64
}

func (m memDelta) into(v values) {
	v["mem.alloc_mb_per_pass"] = m.allocMB
	v["mem.mallocs_per_pass"] = m.mallocs
	v["mem.gc_cycles"] = m.gcCycles
	v["mem.gc_pause_ms"] = m.gcPauseMS
}

func memSince(a *runtime.MemStats) memDelta {
	var b runtime.MemStats
	runtime.ReadMemStats(&b)
	return memDelta{
		allocMB:   float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		mallocs:   float64(b.Mallocs - a.Mallocs),
		gcCycles:  float64(b.NumGC - a.NumGC),
		gcPauseMS: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

type pass struct {
	wall   time.Duration
	digest string
	snap   obs.Snapshot // the program's own counters and stage timers for this pass
	mem    memDelta
	s      *scenario.Scenario
	// ribEvents is bgp.converge.events when the second full-RIB
	// convergence ended (traced passes only).
	ribEvents int64
}

// runPass is one operation of the batch workloads: build the world,
// run every experiment with seed behind their random streams, render
// the report. With a recorder it is the traced pass: the benchmark's
// wrappers and the program's own stage boundaries become spans of pass
// op.
func runPass(cfg scenario.Config, seed int64, rec *recorder, op int64) (pass, error) {
	var p pass
	call := func(layer, name string, fn func()) { fn() }
	if rec != nil {
		call = func(layer, name string, fn func()) { rec.call(op, layer, name, fn) }
		defer obs.OnStage(rec.stageListener(op))()
		events := obs.Default().Counter("bgp.converge.events")
		defer obs.OnStage(func(name string, begin bool) {
			if !begin && name == "scenario/converge-current" {
				p.ribEvents = events.Value()
			}
		})()
	}
	obs.Reset()
	// Start every pass from a collected heap, as a fresh `routelab all`
	// would: otherwise when the previous pass's world is freed decides
	// this pass's peak memory and part of its time.
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var err error
	t0 := time.Now()
	call("bench", "bench/pass", func() {
		var res experiments.Result
		call("scenario", "call/scenario.Build", func() { p.s, err = scenario.Build(cfg, nil) })
		if err != nil {
			return
		}
		all, _ := experiments.Get("all")
		call("experiments", "call/Experiment.Run", func() {
			res, err = all.Run(context.Background(), &experiments.Env{S: p.s, Seed: seed})
		})
		if err != nil {
			return
		}
		call("experiments", "call/experiments.Render", func() {
			sum := sha256.Sum256([]byte(experiments.Render(res)))
			p.digest = hex.EncodeToString(sum[:])
		})
	})
	p.wall = time.Since(t0)
	p.snap = obs.Snap()
	p.mem = memSince(&m0)
	return p, err
}

// batchSetup is everything before the first timed pass: expand the
// world, read the golden digest, and run one pass of the quick world so
// the pipeline's code and the Go heap are warm. It is done reps times;
// the reported set-up time is the median.
func batchSetup(o options, workers, reps int) (cfg scenario.Config, golden string, expandMS, setupS float64, err error) {
	var durs, expands []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var ms float64
		if cfg, ms, err = loadWorld(worldPath(o.quick), workers); err != nil {
			return
		}
		expands = append(expands, ms)
		b, rerr := os.ReadFile(filepath.Join(benchDir(), "golden", fmt.Sprintf("batch_seed%d.sha256", goldenSeed)))
		if rerr != nil {
			err = rerr
			return
		}
		golden = strings.TrimSpace(string(b))
		warm, _, werr := loadWorld(worldPath(true), workers)
		if werr != nil {
			err = werr
			return
		}
		if _, err = runPass(warm, o.seed, nil, 0); err != nil {
			return
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return cfg, golden, median(expands), median(durs), nil
}

func snapCounts(s obs.Snapshot) map[string]int64 {
	out := make(map[string]int64, len(exactCounts))
	for _, name := range exactCounts {
		out[name] = s.Counters[name]
	}
	return out
}

// checkPasses applies the batch output checks to the passes of one run
// and returns how many passes failed them.
func checkPasses(r *Result, o options, golden string, passes []pass) int {
	failed := 0
	first := passes[0]
	for i, p := range passes[1:] {
		same := p.digest == first.digest
		for _, name := range exactCounts {
			same = same && p.snap.Counters[name] == first.snap.Counters[name]
		}
		if !same {
			failed++
			r.check("batch.passes_repeat", false, "pass %d: digest %s counts %v; pass 0: digest %s counts %v",
				i+1, p.digest, snapCounts(p.snap), first.digest, snapCounts(first.snap))
		}
	}
	if failed == 0 {
		r.check("batch.passes_repeat", true, "")
	}
	div := first.snap.Counters["bgp.converge.diverged"]
	r.check("batch.none_diverged", div == 0, "%d convergences hit the event cap", div)
	ok := true
	if o.seed == goldenSeed && !o.quick {
		ok = first.digest == golden
		r.check("batch.golden_digest", ok, "seed %d digest %s, committed %s", goldenSeed, first.digest, golden)
	}
	if !ok || div != 0 {
		failed = len(passes)
	}
	r.Digest = first.digest
	r.Counts = snapCounts(first.snap)
	return failed
}

// runBatch measures one batch workload: timed passes until o.seconds
// have gone by (one pass in quick mode).
func runBatch(o options, workers int) (*Result, error) {
	r := o.result()
	// Five short set-ups rather than three: the first one or two of a
	// process run slow, and the median has to survive them.
	reps := 5
	if o.quick {
		reps = 1
	}
	cfg, golden, _, setupS, err := batchSetup(o, workers, reps)
	if err != nil {
		return nil, err
	}
	var passes []pass
	var walls []float64
	start := time.Now()
	for len(passes) == 0 || (!o.quick && time.Since(start) < o.duration()) {
		p, err := runPass(cfg, o.seed, nil, int64(len(passes)+1))
		r.Attempted++
		if err != nil {
			r.Failed++
			r.note("pass %d: %v", r.Attempted, err)
			if r.Failed > 2 {
				break
			}
			continue
		}
		p.s = nil // only the traced run probes the world; do not hold every pass's
		passes = append(passes, p)
		walls = append(walls, float64(p.wall)/1e6)
	}
	timed := time.Since(start).Seconds()
	if len(passes) == 0 {
		return nil, fmt.Errorf("%s: no pass completed", o.workload)
	}
	r.Failed += checkPasses(r, o, golden, passes)
	tp, tv := tail(sorted(walls))
	r.note("op = one build + all + render pass; %d timed passes (ms: %.0f), workers=%d; op_tail_ms is p%g", len(passes), walls, workers, tp)
	r.Metrics = values{
		"setup_s":     setupS,
		"ops_per_s":   float64(len(passes)) / timed,
		"op_p50_ms":   median(walls),
		"op_tail_ms":  tv,
		"peak_rss_mb": peakRSSMB(),
	}.metrics(endToEnd)
	return r, nil
}

// traceBatch is the traced run of a batch workload: one untraced pass
// for the overhead base, one traced pass, then the layer probes on the
// world the traced pass built.
func traceBatch(o options, workers int) (*Result, error) {
	r := o.result()
	cfg, golden, expandMS, _, err := batchSetup(o, workers, 1)
	if err != nil {
		return nil, err
	}
	plain, err := runPass(cfg, o.seed, nil, 1)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := runPass(cfg, o.seed, rec, 2)
	if err != nil {
		return nil, err
	}
	r.Attempted = 2
	r.Failed = checkPasses(r, o, golden, []pass{plain, traced})

	spans := rec.finished()
	parentByContainment(spans)
	wall := traced.wall.Seconds()
	layers := selfByLayer(spans)
	r.LayerSelfS = layers
	attributed := 1 - layers["bench"]/wall
	r.check("trace.attributed", attributed >= 0.95, "named layer spans cover %.1f%% of the pass", attributed*100)
	// The listener's scenario/* spans and the program's own stage
	// timers time the same intervals from either side of the hook.
	var disagree []string
	for _, st := range traced.snap.Stages {
		if !strings.HasPrefix(st.Name, "scenario/") {
			continue
		}
		span, timer := spanTotal(spans, st.Name), float64(st.TotalNS)/1e9
		if math.Abs(span-timer) > 0.02*timer+100e-6 {
			disagree = append(disagree, fmt.Sprintf("%s: spans %.6fs, obs timer %.6fs", st.Name, span, timer))
		}
	}
	r.check("trace.agrees_with_obs", len(disagree) == 0, "%s", strings.Join(disagree, "; "))
	if err := writeTrace(o.workload, spans); err != nil {
		return nil, err
	}

	c, g := traced.snap.Counters, traced.snap.Gauges
	ribS := spanTotal(spans, "scenario/converge-historical") + spanTotal(spans, "scenario/converge-current")
	buildS := spanTotal(spans, "scenario/build")
	// The ablations re-run the campaign; the build's own is the first.
	var campaignS float64
	for _, s := range spans {
		if s.Name == "scenario/campaign" {
			campaignS = float64(s.dur()) / 1e9
			break
		}
	}
	v := values{
		"spec.expand_ms":            expandMS,
		"topology.generate_s":       spanTotal(spans, "scenario/topology"),
		"topology.ases":             float64(c["scenario.topology.ases"]),
		"topology.links":            float64(c["scenario.topology.links"]),
		"topology.prefixes":         float64(c["scenario.topology.prefixes"]),
		"bgp.rib_s":                 ribS,
		"bgp.rib_share":             ribS / wall,
		"bgp.rib_routes":            float64(c["bgp.rib.routes"]),
		"parallel.rib_utilization":  g["bgp/compute-rib.utilization"],
		"parallel.workers":          g["bgp/compute-rib.workers"],
		"vantage.snapshots_s":       spanTotal(spans, "scenario/snapshots"),
		"inference.infer_s":         spanTotal(spans, "scenario/inference"),
		"inference.edges":           float64(c["scenario.inference.edges"]),
		"atlas.deploy_s":            spanTotal(spans, "scenario/atlas"),
		"atlas.probes":              float64(c["scenario.probes.selected"]),
		"traceroute.campaign_s":     campaignS,
		"traceroute.traces_issued":  float64(c["scenario.traces.issued"]),
		"scenario.build_s":          buildS,
		"scenario.build_share":      buildS / wall,
		"scenario.decisions":        float64(c["scenario.decisions"]),
		"classify.figure1_s":        spanTotal(spans, "experiments/figure1-breakdowns"),
		"peering.alternates_s":      spanTotal(spans, "scenario/alternates"),
		"peering.magnet_s":          spanTotal(spans, "scenario/magnet"),
		"experiments.all_s":         spanTotal(spans, "experiment/all"),
		"experiments.ablations_s":   spanTotal(spans, "experiment/ablations"),
		"experiments.alternates_s":  spanTotal(spans, "experiment/alternates"),
		"experiments.casestudies_s": spanTotal(spans, "experiment/casestudies"),
		"experiments.figure1_s":     spanTotal(spans, "experiment/figure1"),
		"experiments.prediction_s":  spanTotal(spans, "experiment/prediction"),
		"experiments.render_s":      spanTotal(spans, "call/experiments.Render"),
		"trace.overhead_ratio":      wall / plain.wall.Seconds(),
		"trace.attributed_share":    attributed,
	}
	bgpCounts(v, func(name string) int64 { return c[name] })
	traced.mem.into(v)
	if traced.ribEvents > 0 {
		v["bgp.ns_per_event"] = ribS * 1e9 / float64(traced.ribEvents)
	}
	if campaignS > 0 {
		v["traceroute.traces_per_s"] = v["traceroute.traces_issued"] / campaignS
	}
	r.note("trace.overhead_ratio = traced pass %.3fs / untraced pass %.3fs", wall, plain.wall.Seconds())
	probeLayers(traced.s, o, v)
	r.Metrics = v.metrics(perLayer)
	return r, nil
}

// bgpCounts fills in the engine's work counters, read through get: the
// pass's own counts on batch, the deltas over the traced phases on
// serve.
func bgpCounts(v values, get func(name string) int64) {
	v["bgp.events"] = float64(get("bgp.converge.events"))
	v["bgp.changes"] = float64(get("bgp.converge.changes"))
	v["bgp.converge_calls"] = float64(get("bgp.converge.calls"))
	v["bgp.diverged"] = float64(get("bgp.converge.diverged"))
	v["bgp.intern_hit_ratio"] = ratio(get("bgp.intern.hits"), get("bgp.intern.hits")+get("bgp.intern.misses"))
	v["bgp.fork_calls"] = float64(get("bgp.fork.calls"))
	v["bgp.fork_row_clones"] = float64(get("bgp.fork.row_clones"))
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
