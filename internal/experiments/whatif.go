package experiments

import (
	"context"
	"fmt"
	"io"

	"routelab/internal/report"
	"routelab/internal/whatif"
)

// --- what-if delta probes ---------------------------------------------

// WhatIfRow is one delta's reconvergence outcome: how many best-path
// decisions changed, split by shape, plus the churn the incremental
// reconvergence paid.
type WhatIfRow struct {
	Delta    string `json:"delta"`
	Kind     string `json:"kind"`
	Affected int    `json:"affected"`
	Gained   int    `json:"gained"`
	Lost     int    `json:"lost"`
	Moved    int    `json:"moved"`
	Events   int    `json:"events"`
	Churn    int    `json:"churn"`
}

// WhatIfResult reports a deterministic sweep of typed what-if deltas —
// the §3.2-style counterfactual probes — each evaluated on its own COW
// fork of the testbed's frozen converged anycast base.
type WhatIfResult struct {
	Prefix string      `json:"prefix"`
	Origin string      `json:"origin"`
	Rows   []WhatIfRow `json:"rows"`
}

func (r *WhatIfResult) render(w io.Writer) {
	t := report.NewTable("What-if engine: delta probes over the anycast base",
		"Delta", "Affected", "Gained", "Lost", "Moved", "Events", "Churn")
	for _, row := range r.Rows {
		t.Row(row.Delta, row.Affected, row.Gained, row.Lost, row.Moved, row.Events, row.Churn)
	}
	t.Note("prefix %s, origin %s; every delta forks the same frozen base (independent counterfactuals)",
		r.Prefix, r.Origin)
	t.Render(w)
}

// whatIf sweeps one delta of every applicable kind over the testbed,
// checking ctx before each evaluation. The set is a pure function of
// the sealed scenario (origin and muxes always exist), so the result is
// deterministic and cacheable like every other experiment.
func whatIf(ctx context.Context, env *Env) (Result, error) {
	tb := env.S.Testbed
	origin, mux0 := tb.Origin, tb.Muxes[0]
	mux1 := tb.Muxes[1%len(tb.Muxes)]
	ds := []whatif.Delta{
		{Kind: whatif.LinkFailure, A: origin.String(), B: mux0.String()},
		{Kind: whatif.Poison, Poisoned: []string{mux0.String()}},
		{Kind: whatif.Poison, Poisoned: []string{mux0.String(), mux1.String()}},
		{Kind: whatif.Prepend, Prepend: 3},
		{Kind: whatif.LocalPref, At: mux0.String(), From: origin.String(), Pref: 10},
		{Kind: whatif.Withdraw},
	}
	cds, err := whatif.CompileAll(ds, env.S.Topo, origin)
	if err != nil {
		return nil, fmt.Errorf("whatif: %w", err)
	}
	prefix := tb.Prefixes[0]
	base := tb.AnycastBase(prefix)
	res := &WhatIfResult{Prefix: prefix.String(), Origin: origin.String()}
	for _, cd := range cds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d, err := whatif.Eval(base, cd)
		if err != nil {
			return nil, fmt.Errorf("whatif: %s: %w", cd.Canonical(), err)
		}
		if !d.Converged {
			return nil, fmt.Errorf("whatif: %s did not reconverge", cd.Canonical())
		}
		res.Rows = append(res.Rows, WhatIfRow{
			Delta:    d.Delta,
			Kind:     d.Kind,
			Affected: d.Affected,
			Gained:   d.Gained,
			Lost:     d.Lost,
			Moved:    d.Moved,
			Events:   d.Events,
			Churn:    d.Churn,
		})
	}
	return res, nil
}
