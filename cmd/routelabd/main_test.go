package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"routelab/internal/obs"
	"routelab/internal/scenario"
	"routelab/internal/service"
)

// argsEnv carries routelabd's arguments, JSON-encoded, to a re-executed
// test binary: TestMain then runs main itself, so the tests drive the
// real flag parsing, listener, signal handling and exit codes.
const argsEnv = "ROUTELABD_TEST_ARGS"

func TestMain(m *testing.M) {
	if v, ok := os.LookupEnv(argsEnv); ok {
		var args []string
		if err := json.Unmarshal([]byte(v), &args); err != nil {
			fmt.Fprintln(os.Stderr, "routelabd test:", err)
			os.Exit(3)
		}
		os.Args = append([]string{"routelabd"}, args...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// routelabd is one re-executed routelabd process.
type routelabd struct {
	cmd  *exec.Cmd
	base string      // http://ADDR, read from the listening line
	log  chan string // the whole stderr, once the process closes it
}

func command(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	enc, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+string(enc))
	return cmd
}

// start runs routelabd on 127.0.0.1:0 and waits for its listening line.
func start(t *testing.T, args ...string) *routelabd {
	t.Helper()
	cmd := command(t, append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	d := &routelabd{cmd: cmd, log: make(chan string, 1)}
	addr := make(chan string, 1)
	go func() {
		var log strings.Builder
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			log.WriteString(line + "\n")
			if u, ok := strings.CutPrefix(line, "routelabd: serving routelab-api/v1 on "); ok {
				addr <- strings.TrimSuffix(u, "/v1/")
			}
		}
		d.log <- log.String()
	}()
	select {
	case d.base = <-addr:
	case log := <-d.log:
		t.Fatalf("routelabd exited before listening:\n%s", log)
	case <-time.After(2 * time.Minute):
		t.Fatal("routelabd never started listening")
	}
	return d
}

// stop sends SIGTERM and requires a clean drain: exit 0 with the
// drain confirmation in the log.
func (d *routelabd) stop(t *testing.T) string {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	log := <-d.log
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("routelabd after SIGTERM: %v\n%s", err, log)
	}
	if !strings.Contains(log, "routelabd: drained, bye") {
		t.Fatalf("no drain confirmation in the log:\n%s", log)
	}
	return log
}

// call sends one request and requires status want and a valid
// routelab-api/v1 body (whatif and build payloads included); it returns
// the envelope and the raw body.
func (d *routelabd) call(t *testing.T, method, path, body string, want int) (service.Envelope, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d\n%s", method, path, resp.StatusCode, want, raw)
	}
	return checkEnvelope(t, method+" "+path, raw), raw
}

// checkEnvelope validates a served body: the envelope, and the payload
// of the kinds that carry their own consistency rules.
func checkEnvelope(t *testing.T, name string, raw []byte) service.Envelope {
	t.Helper()
	var e service.Envelope
	err := json.Unmarshal(raw, &e)
	if err == nil {
		err = e.Validate()
	}
	if err == nil {
		switch e.Kind {
		case "whatif":
			var data service.WhatIfData
			if err = json.Unmarshal(e.Data, &data); err == nil {
				err = data.Validate()
			}
		case "build":
			var data service.BuildProgressData
			if err = json.Unmarshal(e.Data, &data); err == nil {
				err = data.Validate()
			}
		}
	}
	if err != nil {
		t.Fatalf("%s: invalid routelab-api/v1 body: %v\n%s", name, err, raw)
	}
	return e
}

// A fleet of one at -scale 0.05 answers every /v1 endpoint and one 4xx
// per endpoint family with valid envelopes, aliases /v1/... to
// /v1/scenarios/default/..., and on SIGTERM drains, writes its metrics
// report and exits 0. Its progress is its build's phase lines, all
// before the listening line and none after it, though the ablations
// experiment re-runs a traceroute campaign on the served world.
func TestLifecycleFleetOfOne(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	d := start(t, "-quiet=false", "-scale", "0.05", "-request-timeout", "60s", "-metrics-json", metrics)

	_, health := d.call(t, "GET", "/v1/healthz", "", 200)
	d.call(t, "GET", "/v1/metrics", "", 200)

	// Trace ids are sparse (unusable traceroutes are dropped): probe
	// from 0 up for a live one, as routeload's warmup does.
	trace := -1
	for id := 0; id < 200 && trace < 0; id++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/classify?trace=%d", d.base, id))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			trace = id
		}
	}
	if trace < 0 {
		t.Fatal("no measurement found in trace ids 0..199")
	}
	env, _ := d.call(t, "GET", fmt.Sprintf("/v1/classify?trace=%d", trace), "", 200)
	var classify service.ClassifyData
	if err := json.Unmarshal(env.Data, &classify); err != nil || len(classify.Decisions) == 0 {
		t.Fatalf("classify payload: %v, %d decisions", err, len(classify.Decisions))
	}
	as := strings.TrimPrefix(classify.Decisions[0].At, "AS")
	for _, path := range []string{
		fmt.Sprintf("/v1/classify?trace=%d&refinement=All-2", trace),
		"/v1/experiments/table1",
		"/v1/experiments/prediction",
		"/v1/experiments/accuracy",
		"/v1/experiments/ablations",
		"/v1/as/" + as,
		"/v1/alternates?target=" + as,
		"/v1/scenarios",
	} {
		d.call(t, "GET", path, "", 200)
	}
	if _, alias := d.call(t, "GET", "/v1/scenarios/default/healthz", "", 200); string(alias) != string(health) {
		t.Errorf("/v1/healthz and /v1/scenarios/default/healthz differ:\n%s\n%s", health, alias)
	}

	for _, c := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/definitely-not-a-route", "", 404},
		{"POST", "/v1/healthz", "", 404},
		{"GET", "/v1/classify?trace=zzz", "", 400},
		{"GET", "/v1/alternates?target=zzz", "", 400},
		{"GET", "/v1/as/notanumber", "", 400},
		{"GET", "/v1/experiments/bogus", "", 404},
		{"POST", "/v1/whatif", `{"schema":"routelab-whatif/v1"}`, 400},
	} {
		if env, _ := d.call(t, c.method, c.path, c.body, c.want); env.Kind != "error" {
			t.Errorf("%s %s: kind %q, want error", c.method, c.path, env.Kind)
		}
	}

	log := d.stop(t)
	before, after, _ := strings.Cut(log, "routelabd: serving routelab-api/v1 on ")
	var want strings.Builder
	for i, phase := range scenario.Phases {
		fmt.Fprintf(&want, "[%d/%d] %s\n", i+1, len(scenario.Phases), phase)
	}
	phaseLine := regexp.MustCompile(`(?m)^\[\d+/\d+\] .*\n`)
	if got := strings.Join(phaseLine.FindAllString(before, -1), ""); got != want.String() {
		t.Errorf("phase lines before listening:\n%swant:\n%s", got, want.String())
	}
	if got := phaseLine.FindAllString(after, -1); len(got) != 0 {
		t.Errorf("phase lines after listening: %q", got)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("no metrics report on exit: %v", err)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil || rep.Schema != obs.ReportSchema {
		t.Fatalf("metrics report: %v, schema %q, want %q", err, rep.Schema, obs.ReportSchema)
	}
}

// A boot that fails still writes its -metrics-json report: here the
// world builds, its address is taken, and routelabd exits 1 with the
// build on record.
func TestFailedBootWritesMetrics(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	out, err := command(t, "-scale", "0.05", "-addr", held.Addr().String(), "-metrics-json", metrics).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("err %v, want exit status 1\n%s", err, out)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("no metrics report on a failed boot: %v\n%s", err, out)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil || rep.Schema != obs.ReportSchema {
		t.Fatalf("metrics report: %v, schema %q, want %q", err, rep.Schema, obs.ReportSchema)
	}
	if n := rep.Metrics.Counters["scenario.builds"]; n != 1 {
		t.Errorf("scenario.builds = %d, want 1", n)
	}
}

// A fleet over the scenario corpus lists it, admits a spec over POST
// /v1/scenarios, answers the build-progress endpoint for a pending and
// a built scenario, serves a what-if exchange whose request and
// response both validate, and drains on SIGTERM.
func TestLifecycleCorpusFleet(t *testing.T) {
	d := start(t, "-scenario-dir", "../../scenarios", "-request-timeout", "120s")

	env, _ := d.call(t, "GET", "/v1/scenarios", "", 200)
	var list service.ScenariosData
	if err := json.Unmarshal(env.Data, &list); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, in := range list.Scenarios {
		listed[in.ID] = true
	}
	for _, id := range []string{"smoke", "smoke-alt", "paper"} {
		if !listed[id] {
			t.Errorf("corpus scenario %s not listed", id)
		}
	}

	admit := "spec: routelab-spec/v1\nname: admitted\nprofile: tiny\nseed: 2017\n"
	d.call(t, "POST", "/v1/scenarios", admit, 201)
	d.call(t, "GET", "/v1/scenarios/admitted/healthz", "", 200)
	for id, want := range map[string]string{"paper": service.BuildPending, "admitted": service.BuildBuilt} {
		env, _ := d.call(t, "GET", "/v1/scenarios/"+id+"/build", "", 200)
		var build service.BuildProgressData
		if err := json.Unmarshal(env.Data, &build); err != nil || build.State != want {
			t.Errorf("%s build: %v, state %q, want %q", id, err, build.State, want)
		}
	}

	doc := `{"schema":"routelab-whatif/v1","deltas":[{"kind":"withdraw"},{"kind":"prepend","prepend":2}]}`
	var req service.WhatIfRequest
	if err := json.Unmarshal([]byte(doc), &req); err != nil {
		t.Fatal(err)
	}
	if err := req.Validate(); err != nil {
		t.Fatalf("what-if request: %v", err)
	}
	if env, _ := d.call(t, "POST", "/v1/scenarios/smoke/whatif", doc, 200); env.Kind != "whatif" {
		t.Errorf("what-if response kind %q", env.Kind)
	}

	d.stop(t)
}

// routelabd refuses a contradictory or malformed command line before
// it builds or listens: exit 2 and a message naming the problem.
func TestRefusals(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"world flag with scenario dir", []string{"-scenario-dir", "../../scenarios", "-scale", "0.1"},
			"-scale does not apply with -scenario-dir"},
		{"stray argument", []string{"-scale", "0.05", "stray"}, "unexpected arguments: [stray]"},
		{"missing scenario dir", []string{"-scenario-dir", filepath.Join(t.TempDir(), "absent")},
			"no such file or directory"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := command(t, c.args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("err %v, want exit status 2\n%s", err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("output lacks %q:\n%s", c.want, out)
			}
		})
	}
}
