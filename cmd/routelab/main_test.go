package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"routelab/internal/experiments"
	"routelab/internal/obs"
	"routelab/internal/race"
	"routelab/internal/scenario"
)

// argsEnv carries routelab's arguments, JSON-encoded, to a re-executed
// test binary: TestMain then runs main itself, so the tests drive the
// real flag parsing, build, output and exit codes.
const argsEnv = "ROUTELAB_TEST_ARGS"

// golden is the full-scale run EXPERIMENTS.md quotes: `routelab -quiet
// all` at default flags. Regenerate it with
// WRITE_GOLDEN=1 go test ./cmd/routelab -run TestFullScaleGolden
// — but only after an intentional output change.
const golden = "../../results_full_scale.txt"

const smoke = "../../scenarios/smoke.yaml"

func TestMain(m *testing.M) {
	if v, ok := os.LookupEnv(argsEnv); ok {
		var args []string
		if err := json.Unmarshal([]byte(v), &args); err != nil {
			fmt.Fprintln(os.Stderr, "routelab test:", err)
			os.Exit(3)
		}
		os.Args = append([]string{"routelab"}, args...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run re-executes the test binary as routelab and returns its stdout,
// its stderr and its exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	enc, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+string(enc))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}

// The full-scale run at default flags prints results_full_scale.txt
// byte for byte, and its metrics report shows that no convergence hit
// the event cap: a committed golden must not come from a RIB frozen
// mid-oscillation. The build takes about 5 s; under the race detector
// it would take minutes, so this leg gates in the runs without -race.
func TestFullScaleGolden(t *testing.T) {
	if race.Enabled {
		t.Skip("full-scale build; gated by the runs without -race")
	}
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	stdout, stderr, code := run(t, "-quiet", "-metrics-json", metrics, "all")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if os.Getenv("WRITE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("output differs from %s (regenerate with WRITE_GOLDEN=1) at %s",
			golden, firstDiff(stdout, string(want)))
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("no metrics report: %v", err)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("metrics report: %v", err)
	}
	if rep.Experiment != "all" {
		t.Errorf("metrics report names experiment %q, want all", rep.Experiment)
	}
	diverged, ok := rep.Metrics.Counters["bgp.converge.diverged"]
	if !ok || diverged != 0 {
		t.Errorf("bgp.converge.diverged = %d (reported: %v), want 0", diverged, ok)
	}
	if rep.Metrics.Counters["scenario.decisions"] == 0 {
		t.Error("metrics report counts no classified decision")
	}
}

// An unknown experiment is refused before any build: exit 2, one line
// on stderr naming the valid experiments, and no build progress.
func TestUnknownExperiment(t *testing.T) {
	stdout, stderr, code := run(t, "-spec", smoke, "figure9")
	if code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, stderr)
	}
	want := fmt.Sprintf("routelab: unknown experiment %q (have %v)\n", "figure9", experiments.Names())
	if stderr != want || stdout != "" {
		t.Errorf("stdout %q, stderr %q; want no stdout and stderr %q", stdout, stderr, want)
	}
}

// With no experiment, routelab prints its usage and exits 2.
func TestNoArguments(t *testing.T) {
	stdout, stderr, code := run(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, stderr)
	}
	want := fmt.Sprintf("usage: routelab [flags] <experiment>\nexperiments: %v\nflags:\n", experiments.Names())
	if !strings.HasPrefix(stderr, want) || !strings.Contains(stderr, "-metrics-json") || stdout != "" {
		t.Errorf("stdout %q, stderr:\n%s\nwant no stdout and the usage text", stdout, stderr)
	}
}

// The worker count trades wall clock for cores and never changes a
// byte of the output.
func TestWorkersByteIdentical(t *testing.T) {
	var outs []string
	for _, workers := range []string{"1", "2"} {
		stdout, stderr, code := run(t, "-quiet", "-spec", smoke, "-workers", workers, "all")
		if code != 0 || stdout == "" {
			t.Fatalf("-workers %s: exit %d, %d bytes of output\n%s", workers, code, len(stdout), stderr)
		}
		outs = append(outs, stdout)
	}
	if outs[0] != outs[1] {
		t.Errorf("-workers 1 and -workers 2 differ at %s", firstDiff(outs[1], outs[0]))
	}
}

// Build progress is one line per phase, in order, as the build begins
// it, and then the built: line. The ablations re-run the campaign on
// the built scenario, which records on the build's record too; that
// prints no phase line.
func TestPhaseLinesOncePerBuild(t *testing.T) {
	_, stderr, code := run(t, "-spec", smoke, "all")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	var phases []string
	built := false
	for _, line := range strings.Split(stderr, "\n") {
		switch {
		case strings.HasPrefix(line, "built: "):
			built = true
		case strings.HasPrefix(line, "[") && built:
			t.Errorf("phase line after built: %q", line)
		case strings.HasPrefix(line, "["):
			phases = append(phases, line)
		}
	}
	if !built {
		t.Fatalf("no built: line\n%s", stderr)
	}
	var want []string
	for i, name := range scenario.Phases {
		want = append(want, fmt.Sprintf("[%d/%d] %s", i+1, len(scenario.Phases), name))
	}
	if !slices.Equal(phases, want) {
		t.Errorf("phase lines %q, want %q", phases, want)
	}
}
