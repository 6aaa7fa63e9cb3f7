// The experiments registry: every table and figure is an Experiment
// with a stable name, run as a pure computation returning a structured
// Result. Rendering to the paper-style text report is a separate step
// (Render), so cmd/routelab can print the classic byte-identical output
// while cmd/routelabd serves the very same Result values as JSON.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"routelab/internal/obs"
	"routelab/internal/scenario"
)

// Env is the execution environment an experiment consumes: the shared
// (sealed, warm) scenario and the master seed the run derives its
// per-experiment rand streams from. Envs are read-only and safe to
// share across concurrent Run calls — the scenario is immutable after
// Build and classify.Context's model caches are synchronized.
type Env struct {
	S    *scenario.Scenario
	Seed int64
}

// Result is a structured experiment outcome. Every concrete Result is
// an exported, JSON-marshalable struct in this package; its canonical
// text rendering (the bytes cmd/routelab prints) is produced by Render.
type Result interface {
	// render writes the experiment's canonical text report.
	render(w io.Writer)
}

// Experiment is one registered driver: a named, context-aware
// computation over a scenario.
type Experiment interface {
	// Name is the stable identifier the CLI and the service dispatch on.
	Name() string
	// Run executes the experiment. It honors ctx cancellation at stage
	// boundaries and returns a structured Result on success.
	Run(ctx context.Context, env *Env) (Result, error)
}

type experiment struct {
	name string
	run  func(ctx context.Context, env *Env) (Result, error)
}

func (e *experiment) Name() string { return e.name }

// Run times the experiment under its obs stage ("experiment/<name>")
// and bumps the experiments.runs counter, exactly as the print-style
// entry points did before the registry redesign.
func (e *experiment) Run(ctx context.Context, env *Env) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer obs.StartStage("experiment/" + e.name)()
	obs.Inc("experiments.runs")
	return e.run(ctx, env)
}

var registry = map[string]Experiment{}

func register(name string, run func(ctx context.Context, env *Env) (Result, error)) {
	registry[name] = &experiment{name: name, run: run}
}

func init() {
	register("table1", runTable1)
	register("figure1", runFigure1)
	register("table2", runTable2)
	register("figure2", runFigure2)
	register("figure3", runFigure3)
	register("table3", runTable3)
	register("table4", runTable4)
	register("pspvalidation", runPSPValidation)
	register("alternates", runAlternates)
	register("casestudies", runCaseStudies)
	register("accuracy", runAccuracy)
	register("prediction", runPrediction)
	register("ablations", runAblations)
	// whatif is API-era (no pre-registry print driver) and deliberately
	// NOT part of allOrder: "all" stays the paper reproduction.
	register("whatif", runWhatIf)
	register("all", runAll)
}

// Get looks up a registered experiment by name.
func Get(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// Names lists the experiment identifiers the CLI and service accept,
// sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Render produces the canonical text report for a Result — the same
// bytes the pre-registry print-style drivers wrote.
func Render(r Result) string {
	var b strings.Builder
	r.render(&b)
	return b.String()
}

// Run dispatches one experiment by name and writes its text rendering —
// the classic CLI entry point, preserved byte-for-byte over the
// registry.
func Run(name string, w io.Writer, s *scenario.Scenario, seed int64) error {
	exp, ok := Get(name)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	res, err := exp.Run(context.Background(), &Env{S: s, Seed: seed})
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, Render(res))
	return err
}

// NamedResult pairs a sub-experiment with its result inside AllResult.
type NamedResult struct {
	Name   string `json:"name"`
	Result Result `json:"result"`
}

// AllResult is the composite outcome of the "all" experiment: every
// sub-experiment's result in paper order.
type AllResult struct {
	Parts []NamedResult `json:"parts"`
}

func (r *AllResult) render(w io.Writer) {
	for _, p := range r.Parts {
		p.Result.render(w)
	}
}

// allOrder is the paper order the "all" experiment runs and renders in
// (distinct from the sorted Names listing).
var allOrder = []string{
	"table1", "figure1", "table2", "figure2", "figure3", "table3",
	"table4", "pspvalidation", "alternates", "casestudies", "accuracy",
	"prediction", "ablations",
}

func runAll(ctx context.Context, env *Env) (Result, error) {
	res := &AllResult{Parts: make([]NamedResult, 0, len(allOrder))}
	for _, name := range allOrder {
		part, err := registry[name].Run(ctx, env)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		res.Parts = append(res.Parts, NamedResult{Name: name, Result: part})
	}
	return res, nil
}
