// Command routelab reproduces the evaluation of "Investigating
// Interdomain Routing Policies in the Wild" (IMC 2015) over a synthetic
// Internet: it builds the full scenario (ground-truth topology, routing,
// monitor feeds, relationship inference, Atlas traceroute campaign) and
// regenerates the paper's tables and figures.
//
// Usage:
//
//	routelab [flags] <experiment>
//
// where <experiment> is one of: all, table1, figure1, table2, figure2,
// figure3, table3, table4, alternates.
//
// Flags:
//
//	-spec PATH         build the world a declarative scenario spec
//	                   describes (scenarios/*.yaml; see SCENARIOS.md)
//	                   instead of the flag-built default
//	-overlay A,B       overlay names to apply on top of -spec, in order
//	-seed N            master seed (default 2015)
//	-scale F           topology scale factor (default 1.0; 0.1 is fast)
//	-traces N          traceroute campaign size (default 28510)
//	-probes N          selected probe count (default 1998)
//	-workers N         parallel routing workers (default 0 = GOMAXPROCS; 1 = serial)
//	-quiet             suppress build progress
//	-metrics-json PATH write a structured run report (per-stage wall-clock
//	                   timings plus every obs counter/gauge) as JSON
//	-debug-addr ADDR   serve net/http/pprof and expvar on ADDR
//	                   (e.g. localhost:6060) for live profiling
//
// With -spec, the spec's campaign sizing is taken at face value (the
// small-scale probe adjustment applies only to flag-built configs),
// and any of -seed/-scale/-traces/-probes/-workers passed
// explicitly still override the spec — "-spec x.yaml -seed 7" means
// that world, reseeded (spec.World.Resolve, shared with routelabd).
//
// Output is byte-identical for any -workers value; the flag only trades
// wall-clock for cores (see internal/parallel). The observability
// flags are side channels — they never change experiment output (see
// internal/obs and DESIGN.md §9).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"routelab/internal/experiments"
	"routelab/internal/obs"
	"routelab/internal/scenario"
	"routelab/internal/spec"
)

func main() {
	var (
		world       = spec.BindWorld(flag.CommandLine)
		quiet       = flag.Bool("quiet", false, "suppress build progress")
		metricsJSON = flag.String("metrics-json", "", "write a structured metrics report (JSON) to this path")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: routelab [flags] <experiment>\nexperiments: %v\nflags:\n",
			experiments.Names())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	name := flag.Arg(0)
	// Fail fast — before the expensive build — on a name we can't
	// dispatch and on flag combinations no scenario can be built from.
	if _, ok := experiments.Get(name); !ok {
		fmt.Fprintf(os.Stderr, "routelab: unknown experiment %q (have %v)\n",
			name, experiments.Names())
		os.Exit(2)
	}

	if *debugAddr != "" {
		// The pprof and expvar handlers register on DefaultServeMux at
		// import time; the metrics registry joins them under /debug/vars.
		obs.Default().PublishExpvar("routelab")
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "routelab: debug server:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug server: http://%s/debug/pprof/ and /debug/vars\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "routelab: debug server:", err)
			}
		}()
	}

	exp, err := world.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "routelab:", err)
		os.Exit(2)
	}
	cfg := exp.Config

	logf := scenario.Logf(nil)
	if !*quiet {
		logf = func(_ int, format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	start := time.Now()
	// writeMetrics emits the run report whether or not the run
	// succeeded — a report of a failed run is exactly what you want
	// when debugging one.
	writeMetrics := func() {
		if *metricsJSON == "" {
			return
		}
		rep := obs.NewReport()
		rep.Command = "routelab " + strings.Join(os.Args[1:], " ")
		rep.Experiment = name
		rep.Seed = cfg.Seed
		rep.Scale = cfg.Topology.Scale
		rep.Workers = cfg.RoutingWorkers
		rep.WallNS = int64(time.Since(start))
		rep.Metrics = obs.Snap()
		if err := rep.WriteFile(*metricsJSON); err != nil {
			fmt.Fprintln(os.Stderr, "routelab: metrics:", err)
		} else if !*quiet {
			fmt.Fprintf(os.Stderr, "metrics report written to %s\n", *metricsJSON)
		}
	}

	s, err := scenario.Build(cfg, logf)
	if err != nil {
		writeMetrics()
		fmt.Fprintln(os.Stderr, "routelab:", err)
		os.Exit(1)
	}
	if err := experiments.Run(name, os.Stdout, s, cfg.Seed); err != nil {
		writeMetrics()
		fmt.Fprintln(os.Stderr, "routelab:", err)
		os.Exit(1)
	}
	writeMetrics()
}
