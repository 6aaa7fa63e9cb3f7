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
	"slices"
	"sort"
	"strings"

	"routelab/internal/scenario"
)

// Env is the execution environment an experiment consumes: the shared
// (sealed, warm) scenario and the master seed the run derives its
// per-experiment rand streams from. Envs are read-only and safe to
// share across concurrent Run calls — the scenario is immutable after
// Build and classify.Context's model cache is synchronized.
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

// Experiment is one registered driver: a named computation over a
// scenario.
type Experiment struct {
	name string
	run  func(ctx context.Context, env *Env) (Result, error)
}

// Run executes the experiment and returns its structured Result. It
// refuses an already-cancelled ctx, times the run under its obs stage
// ("experiment/<name>") and bumps the experiments.runs counter, both on
// the scenario's record (env.S.Record()); a driver with inner stage
// boundaries (all, ablations, whatif) checks ctx again at each of them.
func (e *Experiment) Run(ctx context.Context, env *Env) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec := env.S.Record()
	defer rec.StartStage("experiment/" + e.name)()
	rec.Counter("experiments.runs").Inc()
	return e.run(ctx, env)
}

// paper is the evaluation in paper order: the drivers "all" runs and
// renders (distinct from the sorted Names listing).
var paper = []*Experiment{
	{"table1", table1},
	{"figure1", figure1},
	{"table2", table2},
	{"figure2", figure2},
	{"figure3", figure3},
	{"table3", table3},
	{"table4", table4},
	{"pspvalidation", pspValidation},
	{"alternates", alternates},
	{"casestudies", caseStudies},
	{"accuracy", accuracy},
	{"prediction", prediction},
	{"ablations", ablations},
}

// registry is every driver by name: the paper's, whatif (API-era and
// deliberately not part of "all", which stays the paper reproduction)
// and all itself.
var registry = func() map[string]*Experiment {
	m := map[string]*Experiment{}
	for _, e := range append(slices.Clip(paper), &Experiment{"whatif", whatIf}, &Experiment{"all", all}) {
		m[e.name] = e
	}
	return m
}()

// Get looks up a registered experiment by name.
func Get(name string) (*Experiment, bool) {
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

func all(ctx context.Context, env *Env) (Result, error) {
	res := &AllResult{Parts: make([]NamedResult, 0, len(paper))}
	for _, e := range paper {
		part, err := e.Run(ctx, env)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.name, err)
		}
		res.Parts = append(res.Parts, NamedResult{Name: e.name, Result: part})
	}
	return res, nil
}
