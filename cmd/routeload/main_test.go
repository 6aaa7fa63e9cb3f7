package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"routelab/internal/service"
	"routelab/internal/spec"
)

// argsEnv carries routeload's arguments, JSON-encoded, to a re-executed
// test binary: TestMain then runs main itself, so the tests drive the
// real flag parsing, scenario discovery, report file and exit codes.
const argsEnv = "ROUTELOAD_TEST_ARGS"

func TestMain(m *testing.M) {
	if v, ok := os.LookupEnv(argsEnv); ok {
		var args []string
		if err := json.Unmarshal([]byte(v), &args); err != nil {
			fmt.Fprintln(os.Stderr, "routeload test:", err)
			os.Exit(3)
		}
		os.Args = append([]string{"routeload"}, args...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as routeload against ts and
// returns its stderr and its exit status.
func runMain(t *testing.T, ts *httptest.Server, args ...string) (stderr string, code int) {
	t.Helper()
	enc, err := json.Marshal(append([]string{"-addr", strings.TrimPrefix(ts.URL, "http://")}, args...))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+string(enc))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return string(out), code
}

// golden reads the committed bucketed emission: 51 requests over 3 s
// from 4 clients, 1 error, 10 clean sheds, three 1 s buckets whose
// p99s climb 3.9 ms → 59 ms → 90 ms.
func golden(t *testing.T) LoadReport {
	t.Helper()
	data, err := os.ReadFile("testdata/LOAD_golden.json")
	if err != nil {
		t.Fatalf("golden fixture unreadable: %v", err)
	}
	var rep LoadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("golden fixture: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("golden fixture invalid: %v", err)
	}
	return rep
}

func TestGoldenFixtureShape(t *testing.T) {
	rep := golden(t)
	if rep.Requests != 51 || rep.Errors != 1 || rep.Sheds != 10 {
		t.Fatalf("fixture drifted: requests/errors/sheds = %d/%d/%d", rep.Requests, rep.Errors, rep.Sheds)
	}
	if rep.BucketNS != 1e9 || len(rep.Buckets) != 3 {
		t.Fatalf("fixture buckets drifted: %d ns × %d", rep.BucketNS, len(rep.Buckets))
	}
}

func TestPrintSummary(t *testing.T) {
	var sb strings.Builder
	printSummary(&sb, golden(t))
	out := sb.String()
	for _, want := range []string{
		"routelab-load/v1: 51 requests, 4 clients",
		"errors 1 (1.96%), sheds 10 (19.61%)",
		"histogram: 3 buckets of 1s",
		"whatif",
		"scenario tiny-clique",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// corpusFleet serves the scenario corpus the way `routelabd
// -scenario-dir scenarios -request-timeout 120s` does, in process.
// Registration is cheap; each scenario builds on its first request.
func corpusFleet(t *testing.T, cfg service.StoreConfig) http.Handler {
	t.Helper()
	cfg.Tenant.RequestTimeout = 120 * time.Second
	store := service.NewStore(cfg)
	if _, err := store.RegisterDir("../../scenarios"); err != nil {
		t.Fatal(err)
	}
	return service.NewFleet(store).Handler()
}

// smokeFleet serves the two smoke worlds alone: a routeload run that
// discovers the fleet's ids builds nothing bigger.
func smokeFleet(t *testing.T) http.Handler {
	t.Helper()
	store := service.NewStore(service.StoreConfig{Tenant: service.Config{RequestTimeout: 120 * time.Second}})
	for _, name := range []string{"smoke", "smoke-alt"} {
		path := "../../scenarios/" + name + ".yaml"
		exp, err := spec.Expand(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Register(exp, path); err != nil {
			t.Fatal(err)
		}
	}
	return service.NewFleet(store).Handler()
}

func serve(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// driveFleet runs routeload's measurement against ts and checks the
// report's own invariants.
func driveFleet(t *testing.T, ts *httptest.Server, ids, cold []string, clients, requests, spread int) LoadReport {
	t.Helper()
	rep, err := drive(newClient(clients, time.Minute), ts.URL, "routeload (test)",
		ids, cold, clients, requests, spread)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Requests != int64(requests) {
		t.Fatalf("report counts %d requests, drove %d", rep.Requests, requests)
	}
	return rep
}

// An unsaturated fleet serves the whole schedule: no errors, no sheds,
// and a p99 far from anything but a build or a serialization on the
// hot path.
func TestDriveHealthy(t *testing.T) {
	ts := serve(t, corpusFleet(t, service.StoreConfig{}))
	rep := driveFleet(t, ts, []string{"smoke", "smoke-alt"}, nil, 8, 160, 0)
	if rep.Errors != 0 || rep.Sheds != 0 {
		t.Errorf("healthy fleet: %d errors, %d sheds, want none", rep.Errors, rep.Sheds)
	}
	if p99 := time.Duration(rep.Latency.P99NS); p99 >= 30*time.Second {
		t.Errorf("healthy fleet: p99 %v, want < 30s", p99)
	}
	if len(rep.Buckets) == 0 || len(rep.PerScenario) != 2 {
		t.Errorf("report has %d buckets and %d scenarios, want >= 1 and 2", len(rep.Buckets), len(rep.PerScenario))
	}
}

// A fleet with one compute slot, one queue place, one cache entry and
// one build-queue place, driven by twice the healthy clients plus four
// cold scenarios whose first touches land mid-run, must shed: the
// concurrent cold builds overrun the build gate, and -spread's distinct
// experiments keys reach the request gate. Every shed must be a clean
// one (429, overloaded, Retry-After); anything else is an error.
func TestDriveSaturated(t *testing.T) {
	ts := serve(t, corpusFleet(t, service.StoreConfig{
		MaxQueuedBuilds: 1,
		CacheSize:       1,
		Tenant:          service.Config{MaxConcurrent: 1, MaxQueuedRequests: 1},
	}))
	rep := driveFleet(t, ts, []string{"smoke", "smoke-alt"},
		[]string{"clean-baseline", "jittered", "domestic", "monitor-starved"}, 16, 320, 320)
	if rep.Errors != 0 {
		t.Errorf("saturated fleet: %d errors, want 0 (sheds must be clean 429s)", rep.Errors)
	}
	if rep.Sheds < 1 {
		t.Errorf("saturated fleet shed nothing: overload protection never engaged")
	}
	t.Logf("saturated fleet: %d requests, %d sheds, %d errors", rep.Requests, rep.Sheds, rep.Errors)
}

// Warming up an id the fleet does not have stops at its healthz: one
// request, and an error that names the 404.
func TestWarmupUnknownScenario(t *testing.T) {
	fleet := corpusFleet(t, service.StoreConfig{})
	var n atomic.Int64
	ts := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		fleet.ServeHTTP(w, r)
	}))
	_, err := warmup(newClient(1, time.Minute), ts.URL, "nope")
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("warmup of an unknown id: err %v, want one naming the 404", err)
	}
	if got := n.Load(); got != 1 {
		t.Errorf("warmup of an unknown id made %d requests, want 1", got)
	}
}

// With no -scenarios, routeload drives every id the fleet lists,
// writes its report to -out and exits 0 when no request failed.
func TestDiscoverFleet(t *testing.T) {
	ts := serve(t, smokeFleet(t))
	out := filepath.Join(t.TempDir(), "load.json")
	log, code := runMain(t, ts, "-clients", "2", "-requests", "40", "-out", out)
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, log)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("no report at -out: %v\n%s", err, log)
	}
	var rep LoadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if want := []string{"smoke", "smoke-alt"}; !reflect.DeepEqual(rep.Scenarios, want) {
		t.Errorf("report drove scenarios %v, want the fleet's %v", rep.Scenarios, want)
	}
	if rep.Requests != 40 || rep.Errors != 0 {
		t.Errorf("report: %d requests, %d errors; want 40 and none", rep.Requests, rep.Errors)
	}
}

// A server that is not a routelabd fails discovery: exit 1 and a
// message that asks whether -addr is right.
func TestNotARoutelabd(t *testing.T) {
	ts := serve(t, http.NotFoundHandler())
	log, code := runMain(t, ts, "-out", "")
	if code != 1 || !strings.Contains(log, "is -addr a routelabd?") {
		t.Errorf("exit %d, want 1 and a message asking whether -addr is a routelabd:\n%s", code, log)
	}
}

// The report is always bucketed by the second: there is no -bucket
// flag, and routeload refuses it with exit 2 before any request.
func TestBucketFlagRefused(t *testing.T) {
	var n atomic.Int64
	ts := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { n.Add(1) }))
	log, code := runMain(t, ts, "-bucket", "1s", "-out", "")
	if code != 2 || !strings.Contains(log, "-bucket") {
		t.Errorf("exit %d, want 2 and a message naming -bucket:\n%s", code, log)
	}
	if got := n.Load(); got != 0 {
		t.Errorf("a refused flag made %d requests, want none", got)
	}
}
