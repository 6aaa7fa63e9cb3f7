package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	"routelab/internal/obs"
	"routelab/internal/scenario"
)

var cached *scenario.Scenario

func testScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	if cached == nil {
		s, err := scenario.Build(scenario.TestConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		cached = s
	}
	return cached
}

func TestAllExperimentsRender(t *testing.T) {
	s := testScenario(t)
	var b strings.Builder
	if err := Run("all", &b, s, 7); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Table 1", "Figure 1", "Table 2", "Figure 2", "Figure 3",
		"Table 3", "Table 4", "alternate-route",
		"Best/Short", "Best relationship", "undersea-cable",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if len(out) < 2000 {
		t.Errorf("suspiciously short output (%d bytes)", len(out))
	}
}

// TestGoldenOutput pins the registry redesign to the pre-registry
// print-style output: every experiment's rendering must be
// byte-identical to the goldens captured from the original drivers
// (testdata/<name>_seed7.golden, test scale, seed 7). Regenerate with
// WRITE_GOLDEN=1 go test ./internal/experiments -run TestGoldenOutput
// — but only after an INTENTIONAL output change.
func TestGoldenOutput(t *testing.T) {
	s := testScenario(t)
	update := os.Getenv("WRITE_GOLDEN") != ""
	check := func(name, got string) {
		t.Helper()
		path := "testdata/" + name + "_seed7.golden"
		if update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != string(want) {
			t.Errorf("%s: output differs from golden %s (len got %d, want %d)",
				name, path, len(got), len(want))
		}
	}
	for _, name := range Names() {
		var nb strings.Builder
		if err := Run(name, &nb, s, 7); err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
		check(name, nb.String())
	}
}

func TestRunDispatch(t *testing.T) {
	s := testScenario(t)
	for _, name := range Names() {
		if name == "all" || name == "table2" || name == "alternates" {
			continue // covered above; slow
		}
		var b strings.Builder
		if err := Run(name, &b, s, 7); err != nil {
			t.Errorf("Run(%s): %v", name, err)
		}
		if b.Len() == 0 {
			t.Errorf("Run(%s) produced nothing", name)
		}
	}
	if err := Run("nope", &strings.Builder{}, s, 7); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRegistryAPI exercises the structured side of the redesign: every
// registered experiment returns a JSON-marshalable Result whose Render
// matches the text the classic entry points emit, and Run honors
// context cancellation.
func TestRegistryAPI(t *testing.T) {
	s := testScenario(t)
	env := &Env{S: s, Seed: 7}
	for _, name := range []string{"table1", "figure1", "figure3", "prediction", "accuracy"} {
		exp, ok := Get(name)
		if !ok {
			t.Fatalf("Get(%s) missing", name)
		}
		if exp.Name() != name {
			t.Errorf("Name() = %q, want %q", exp.Name(), name)
		}
		res, err := exp.Run(context.Background(), env)
		if err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal %s result: %v", name, err)
		}
		if len(data) < 10 {
			t.Errorf("%s: suspiciously small JSON (%s)", name, data)
		}
		if Render(res) == "" {
			t.Errorf("%s: empty rendering", name)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exp, _ := Get("table1")
	if _, err := exp.Run(ctx, env); err == nil {
		t.Error("Run with canceled context succeeded, want error")
	}
}

// TestCancelAtStageBoundary cancels a run from a stage listener the
// moment one of its stages begins: the driver finishes that stage, then
// stops at its next boundary. Run returns context.Canceled and the work
// that would follow never starts.
func TestCancelAtStageBoundary(t *testing.T) {
	env := &Env{S: testScenario(t), Seed: 7}
	for _, tc := range []struct {
		name, cancelAt, never string // never is a stage-name prefix
	}{
		{"all", "experiment/table2", "experiment/"},
		{"ablations", "inference/evidence", "experiments/threshold-ablation"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var (
				mu    sync.Mutex
				after []string // stages begun once ctx was cancelled
			)
			defer obs.OnStage(func(name string, begin bool) {
				mu.Lock()
				defer mu.Unlock()
				if !begin {
					return
				}
				if ctx.Err() != nil {
					after = append(after, name)
				} else if name == tc.cancelAt {
					cancel()
				}
			})()
			exp, _ := Get(tc.name)
			if _, err := exp.Run(ctx, env); !errors.Is(err, context.Canceled) {
				t.Fatalf("Run(%s) cancelled at %s: err = %v, want context.Canceled", tc.name, tc.cancelAt, err)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, st := range after {
				if strings.HasPrefix(st, tc.never) {
					t.Errorf("stage %s began after the cancel at %s", st, tc.cancelAt)
				}
			}
		})
	}
}

// TestResultDeterminism re-runs a rand-consuming experiment twice with
// the same seed and demands identical JSON — the property the service
// cache and the concurrent-vs-serial contract lean on.
func TestResultDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns the alternates campaign")
	}
	s := testScenario(t)
	env := &Env{S: s, Seed: 7}
	exp, _ := Get("alternates")
	r1, err := exp.Run(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := exp.Run(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if string(j1) != string(j2) {
		t.Error("same-seed alternates results differ")
	}
}

func TestAppendixExperiments(t *testing.T) {
	s := testScenario(t)
	for name, want := range map[string]string{
		"accuracy":      "Label accuracy",
		"pspvalidation": "looking glasses",
	} {
		var b strings.Builder
		if err := Run(name, &b, s, 7); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), want) {
			t.Errorf("%s experiment missing %q", name, want)
		}
	}
}

func TestAblationsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations rerun the campaign")
	}
	s := testScenario(t)
	var b strings.Builder
	if err := Run("ablations", &b, s, 3); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"probe selection", "visibility threshold", "snapshot aggregation"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablations missing %q", want)
		}
	}
}
