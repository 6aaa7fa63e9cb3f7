// Command routelabd serves the reproduction as a long-running query
// service over HTTP/JSON — the versioned routelab-api/v1 (see
// internal/service).
//
// routelabd is always a fleet: a store of registered scenario specs
// served side by side under /v1/scenarios/{id}/..., each sealed
// scenario built on first use and kept resident while the fleet fits
// -max-scenario-bytes (least-recently-served evicted first),
// concurrent builds of the same id coalesced, and every scenario given
// its own admission gate, warm anycast bases, and a partition of the
// shared response cache. -scenario-dir registers every routelab-spec/v1
// document in a directory; POST /v1/scenarios admits more at run time.
//
// No -scenario-dir means a fleet of one named "default": the world the
// -spec document or the sizing flags describe, built before the
// listener opens (the expensive part). The un-prefixed routes
// (/v1/classify, /v1/alternates, /v1/whatif, ...) are that scenario's
// alias — the same handlers, gate and cache partition as
// /v1/scenarios/default/....
//
// Usage:
//
//	routelabd [flags]
//
// Flags:
//
//	-addr ADDR          listen address (default localhost:8080)
//	-scenario-dir DIR   register every spec in DIR instead of the one
//	                    world -spec / the sizing flags describe
//	-max-scenario-bytes N  resident-byte budget for sealed scenarios
//	                    (default 1 GiB; eviction is by accounted bytes in
//	                    LRU order, and a sole resident is never evicted)
//	-max-queued-builds N   callers allowed to queue for the build slot (one
//	                    build runs at a time) before new builds shed 429
//	                    (0 = unbounded queue)
//	-max-queued-requests N callers allowed to queue on a tenant's admission
//	                    gate before requests shed 429 (0 = unbounded queue)
//	-spec PATH          build the world a declarative scenario spec
//	                    describes (scenarios/*.yaml; see SCENARIOS.md)
//	-overlay A,B        overlay names to apply on top of -spec, in order
//	-seed N             master seed (default 2015)
//	-scale F            topology scale factor (default 1.0; 0.05 is smoke-test fast)
//	-traces N           traceroute campaign size (default 28510)
//	-probes N           selected probe count (default 1998)
//	-workers N          parallel routing workers (0 = GOMAXPROCS, 1 = serial)
//	-max-concurrent N   concurrent request computations per scenario (0 = GOMAXPROCS)
//	-request-timeout D  per-request deadline (0 = none); expiry returns 504
//	-cache N            response cache entries (default 256; shared by all scenarios)
//	-drain D            shutdown drain budget for in-flight requests (default 30s)
//	-quiet              suppress build progress
//	-metrics-json PATH  write the obs run report as JSON on exit
//	-debug-addr ADDR    serve net/http/pprof and expvar on ADDR
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests (up to -drain), then exits 0. Responses are
// byte-identical per scenario for any -workers / -max-concurrent
// values and any mix of concurrent clients — the build-time
// determinism contract extended to serve time.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"routelab/internal/obs"
	"routelab/internal/scenario"
	"routelab/internal/service"
	"routelab/internal/spec"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, on the API and debug listeners alike: a connection
// stuck there is outside -request-timeout and both 429 gates, so
// nothing else would ever release it.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr         = flag.String("addr", "localhost:8080", "listen address")
		scenarioDir  = flag.String("scenario-dir", "", "register every scenario spec in this directory (instead of the one -spec/flag-built world)")
		maxScenBytes = flag.Int64("max-scenario-bytes", 1<<30, "resident-byte budget for sealed scenarios")
		maxQBuilds   = flag.Int("max-queued-builds", 0, "build-queue depth before shedding 429 (0 = unbounded)")
		maxQRequests = flag.Int("max-queued-requests", 0, "admission-queue depth per scenario before shedding 429 (0 = unbounded)")
		world        = spec.BindWorld(flag.CommandLine)
		maxConc      = flag.Int("max-concurrent", 0, "concurrent request computations per scenario (0 = all cores)")
		reqTimeout   = flag.Duration("request-timeout", 0, "per-request deadline (0 = none)")
		cacheSize    = flag.Int("cache", 256, "response cache entries")
		drain        = flag.Duration("drain", 30*time.Second, "shutdown drain budget")
		quiet        = flag.Bool("quiet", false, "suppress build progress")
		metricsJSON  = flag.String("metrics-json", "", "write a structured metrics report (JSON) to this path on exit")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "routelabd: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	logf := scenario.Logf(nil)
	if !*quiet {
		logf = func(_ int, format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// exp is the fleet-of-one world; nil when -scenario-dir supplies the
	// worlds, where each registered spec is the whole description and the
	// world flags don't apply.
	var exp *spec.Expansion
	if *scenarioDir != "" {
		if set := world.Explicit(); len(set) > 0 {
			fmt.Fprintf(os.Stderr, "routelabd: -%s does not apply with -scenario-dir; the specs are authoritative\n", set[0])
			os.Exit(2)
		}
	} else {
		var err error
		if exp, err = world.Resolve(); err != nil {
			fmt.Fprintln(os.Stderr, "routelabd:", err)
			os.Exit(2)
		}
	}

	if *debugAddr != "" {
		obs.Default().PublishExpvar("routelab")
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "routelabd: debug server:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug server: http://%s/debug/pprof/ and /debug/vars\n", ln.Addr())
		go func() {
			// nil Handler: pprof and expvar register on DefaultServeMux.
			debugSrv := &http.Server{ReadHeaderTimeout: readHeaderTimeout}
			if err := debugSrv.Serve(ln); err != nil {
				fmt.Fprintln(os.Stderr, "routelabd: debug server:", err)
			}
		}()
	}

	start := time.Now()
	writeMetrics := func() {
		if *metricsJSON == "" {
			return
		}
		rep := obs.NewReport()
		rep.Command = "routelabd " + strings.Join(os.Args[1:], " ")
		if exp != nil {
			rep.Seed = exp.Config.Seed
			rep.Scale = exp.Config.Topology.Scale
			rep.Workers = exp.Config.RoutingWorkers
		}
		rep.WallNS = int64(time.Since(start))
		rep.Metrics = obs.Snap()
		if err := rep.WriteFile(*metricsJSON); err != nil {
			fmt.Fprintln(os.Stderr, "routelabd: metrics:", err)
		} else if !*quiet {
			fmt.Fprintf(os.Stderr, "metrics report written to %s\n", *metricsJSON)
		}
	}

	store := service.NewStore(service.StoreConfig{
		MaxScenarioBytes: *maxScenBytes,
		MaxQueuedBuilds:  *maxQBuilds,
		CacheSize:        *cacheSize,
		Tenant: service.Config{
			MaxConcurrent:     *maxConc,
			MaxQueuedRequests: *maxQRequests,
			RequestTimeout:    *reqTimeout,
		},
		Logf: logf,
	})
	if exp == nil {
		n, err := store.RegisterDir(*scenarioDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "routelabd:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "routelabd: fleet of %d scenario(s) from %s: %s\n",
			n, *scenarioDir, strings.Join(store.IDs(), ", "))
	} else {
		// A fleet of one: register the world as the scenario the
		// un-prefixed routes alias, and build it before listening so the
		// first request finds it warm and a failed build never serves.
		origin := "flags"
		if exp.Source != "" {
			origin = filepath.ToSlash(exp.Source)
		}
		exp.Name = service.DefaultID
		err := store.Register(exp, origin)
		if err == nil {
			_, err = store.Get(context.Background(), service.DefaultID)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "routelabd:", err)
			os.Exit(1)
		}
	}

	httpSrv := &http.Server{Handler: service.NewFleet(store).Handler(), ReadHeaderTimeout: readHeaderTimeout}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "routelabd:", err)
		os.Exit(1)
	}
	// The smoke tests and other supervisors wait for this line before
	// sending traffic.
	fmt.Fprintf(os.Stderr, "routelabd: serving routelab-api/v1 on http://%s/v1/\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "routelabd:", err)
		writeMetrics()
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight requests.
	fmt.Fprintln(os.Stderr, "routelabd: shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "routelabd: shutdown:", err)
		writeMetrics()
		os.Exit(1)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "routelabd:", err)
		writeMetrics()
		os.Exit(1)
	}
	writeMetrics()
	fmt.Fprintln(os.Stderr, "routelabd: drained, bye")
}
