package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/classify"
	"routelab/internal/obs"
	"routelab/internal/peering"
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
		{"ablations", "classify/ablation-breakdowns", "experiments/threshold-ablation"},
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

// TestPredictionResultKeys pins the served keys of the prediction
// result, in order: the summary it embeds carries them.
func TestPredictionResultKeys(t *testing.T) {
	r := &PredictionResult{classify.PredictionSummary{Paths: 1, Predicted: 2, Exact: 3, SameLength: 4, FirstHopCorrect: 5}}
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"paths":1,"predicted":2,"exact":3,"same_length":4,"first_hop_correct":5}`
	if string(got) != want {
		t.Errorf("prediction JSON = %s, want %s", got, want)
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

// TestSeedOnlyMovesSeededExperiments pins what keeps a ?seed= sweep
// cheap: only table2 (its observers), alternates, casestudies and
// ablations draw from the seed. Every other paper driver is a function
// of the scenario alone. (A magnet campaign has no runs of its own: it
// observes the build's, s.Magnet.)
func TestSeedOnlyMovesSeededExperiments(t *testing.T) {
	s := testScenario(t)
	seeded := map[string]bool{"table2": true, "alternates": true, "casestudies": true, "ablations": true}
	for _, e := range paper {
		if seeded[e.name] {
			continue
		}
		a, err := e.Run(context.Background(), &Env{S: s, Seed: 7})
		if err != nil {
			t.Fatalf("%s at seed 7: %v", e.name, err)
		}
		b, err := e.Run(context.Background(), &Env{S: s, Seed: 8})
		if err != nil {
			t.Fatalf("%s at seed 8: %v", e.name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the result moves with the seed", e.name)
		}
	}
}

// TestDetourNoteSeesThroughPoison: a poisoned later route ends in the
// sandwich "O {X} O"; poison aside it is [Y O], a suffix of the first
// route [X Y O], which is the paper's unnecessary-detour telltale.
func TestDetourNoteSeesThroughPoison(t *testing.T) {
	const x, y, z, o asn.ASN = 11537, 20080, 3356, 47065
	route := func(p asn.Path) bgp.Route { return bgp.Route{Path: p, NextHop: p.First()} }
	poisoned := func(hops ...asn.ASN) asn.Path {
		p := asn.PathFromASNs(o).PrependSet([]asn.ASN{x}).Prepend(o)
		for i := len(hops) - 1; i >= 0; i-- {
			p = p.Prepend(hops[i])
		}
		return p
	}
	first := peering.AlternateStep{Route: route(asn.PathFromASNs(x, y, o))}
	detour := peering.AlternateStep{Route: route(poisoned(y)), PoisonedSoFar: []asn.ASN{x}}
	if got := detour.Route.Path.String(); got != "20080 47065 {11537} 47065" {
		t.Fatalf("hand-built poisoned path %q", got)
	}
	if !detourNote([]peering.AlternateStep{first, detour}) {
		t.Error("[Y O {X} O] after [X Y O] must set the suffix note")
	}
	other := peering.AlternateStep{Route: route(poisoned(z)), PoisonedSoFar: []asn.ASN{x}}
	if detourNote([]peering.AlternateStep{first, other}) {
		t.Error("[Z O {X} O] after [X Y O] is no suffix")
	}
	if detourNote([]peering.AlternateStep{first}) {
		t.Error("a one-route order has no fallback")
	}
}

// TestTable2AtOtherSeeds pins table2 on the test scenario at three seeds
// other than the build's (and the goldens' 7). A seed re-draws only the
// magnet observers; the rest of each observation is computed once by
// Build, and these rows, captured when table2 still computed all of it
// per call, hold the seeded path to that.
func TestTable2AtOtherSeeds(t *testing.T) {
	s := testScenario(t)
	rows := func(feeds, traces [5]int) []Table2Row {
		out := make([]Table2Row, 5)
		for i, c := range []string{"Best relationship", "Shorter path", "Intradomain tie-breaker", "Oldest route (magnet)", "Violation"} {
			out[i] = Table2Row{Cause: c, Feeds: feeds[i], Traces: traces[i]}
		}
		return out
	}
	for _, tc := range []struct {
		seed int64
		want Table2Result
	}{
		{1, Table2Result{Rows: rows([5]int{60, 22, 4, 17, 45}, [5]int{82, 166, 42, 32, 51}), FeedTotal: 148, TraceTotal: 373}},
		{42, Table2Result{Rows: rows([5]int{64, 19, 7, 15, 42}, [5]int{68, 137, 31, 30, 42}), FeedTotal: 147, TraceTotal: 308}},
		{2016, Table2Result{Rows: rows([5]int{61, 21, 3, 15, 46}, [5]int{71, 121, 39, 19, 47}), FeedTotal: 146, TraceTotal: 297}},
	} {
		got, err := table2(context.Background(), &Env{S: s, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, &tc.want) {
			t.Errorf("seed %d: table2 = %+v, want %+v", tc.seed, got, tc.want)
		}
	}
}
