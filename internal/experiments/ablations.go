package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"routelab/internal/atlas"
	"routelab/internal/classify"
	"routelab/internal/geo"
	"routelab/internal/inference"
	"routelab/internal/obs"
	"routelab/internal/parallel"
	"routelab/internal/relgraph"
	"routelab/internal/report"
	"routelab/internal/scenario"
	"routelab/internal/stats"
	"routelab/internal/vantage"
)

// AblationProbeRow compares one probe-selection strategy.
type AblationProbeRow struct {
	Selection      string  `json:"selection"`
	Probes         int     `json:"probes"`
	EUSharePct     float64 `json:"eu_share_pct"`
	BestShortPct   float64 `json:"best_short_pct"`
	ContinentalPct float64 `json:"continental_pct"`
}

// AblationThresholdRow is one visibility-threshold sweep point.
type AblationThresholdRow struct {
	Threshold    float64 `json:"threshold"`
	Edges        int     `json:"edges"`
	BestShortPct float64 `json:"best_short_pct"`
}

// AblationAggRow compares one snapshot-aggregation strategy.
type AblationAggRow struct {
	Topology     string  `json:"topology"`
	Edges        int     `json:"edges"`
	BestShortPct float64 `json:"best_short_pct"`
}

// AblationsResult quantifies the design choices DESIGN.md calls out:
// the paper's continent-balanced probe selection (vs the raw EU-skewed
// population), the inference visibility threshold, and the five-epoch
// snapshot aggregation (vs the latest snapshot only).
type AblationsResult struct {
	// ProbeSkipReason is set when the raw-population campaign failed and
	// the probe ablation was skipped.
	ProbeSkipReason string                 `json:"probe_skip_reason,omitempty"`
	ProbeRows       []AblationProbeRow     `json:"probe_rows,omitempty"`
	ThresholdRows   []AblationThresholdRow `json:"threshold_rows"`
	AggregationRows []AblationAggRow       `json:"aggregation_rows"`
}

func ablations(ctx context.Context, env *Env) (Result, error) {
	s := env.S
	rng := rand.New(rand.NewSource(env.Seed + 2))
	res := &AblationsResult{}
	computeProbeSelectionAblation(res, s, rng)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Neither the sweep nor the latest-epoch row changes what a snapshot
	// shows, only how it is labelled: gather the evidence once for both.
	cfg := inference.DefaultConfig()
	cfg.SameOrg = s.Siblings.SameOrg
	evidence := parallel.MapStage("inference/evidence", s.Snapshots, s.Cfg.RoutingWorkers,
		func(_ int, snap *vantage.Snapshot) *inference.Evidence {
			return inference.Gather(snap, cfg)
		})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ds := s.Decisions()
	computeThresholdAblation(res, s, evidence, ds)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	computeAggregationAblation(res, s, evidence[len(evidence)-1], cfg.VisibilityThreshold, ds)
	return res, nil
}

// bestShortPct is the Best/Short share of ds under the plain
// Gao–Rexford comparison against cx's graph.
func bestShortPct(cx *classify.Context, ds []classify.Decision) float64 {
	bd := cx.Breakdown(ds, classify.Simple)
	total := 0
	for _, n := range bd {
		total += n
	}
	return stats.Pct(bd[classify.BestShort], total)
}

func (r *AblationsResult) render(w io.Writer) {
	if r.ProbeSkipReason != "" {
		fmt.Fprintf(w, "probe ablation skipped: %v\n", r.ProbeSkipReason)
	} else {
		t := report.NewTable("Ablation: probe selection (balanced vs raw population sample)",
			"Selection", "Probes", "EU share%", "Best/Short%", "Continental%")
		for _, row := range r.ProbeRows {
			t.Row(row.Selection, row.Probes, row.EUSharePct, row.BestShortPct, row.ContinentalPct)
		}
		t.Note("the balanced selection is §3.1's defense against the platform's EU deployment skew")
		t.Render(w)
	}
	t := report.NewTable("Ablation: inference visibility threshold",
		"Threshold", "Edges", "Best/Short%")
	for _, row := range r.ThresholdRows {
		t.Row(fmt.Sprintf("%.1f", row.Threshold), row.Edges, row.BestShortPct)
	}
	t.Note("too low mislabels transit as peering; too high invents transit from thin evidence")
	t.Render(w)
	t = report.NewTable("Ablation: snapshot aggregation",
		"Topology", "Edges", "Best/Short%")
	for _, row := range r.AggregationRows {
		t.Row(row.Topology, row.Edges, row.BestShortPct)
	}
	t.Note("aggregation keeps decommissioned links alive (the stale AS3549-Netflix effect) but smooths per-epoch noise")
	t.Render(w)
}

// computeProbeSelectionAblation reruns the campaign with probes drawn
// uniformly from the EU-skewed population — the bias §3.1's balanced
// methodology exists to avoid.
func computeProbeSelectionAblation(res *AblationsResult, s *scenario.Scenario, rng *rand.Rand) {
	pop := s.Platform.Probes()
	n := len(s.Probes)
	if n > len(pop) {
		n = len(pop)
	}
	idx := rng.Perm(len(pop))[:n]
	raw := make([]atlas.Probe, 0, n)
	for _, i := range idx {
		raw = append(raw, pop[i])
	}
	ms, _, err := s.Campaign(raw, s.Cfg.TracesTarget, rng)
	if err != nil {
		res.ProbeSkipReason = err.Error()
		return
	}
	row := func(label string, probes []atlas.Probe, measurements []classify.Measurement) AblationProbeRow {
		defer obs.StartStage("classify/ablation-breakdowns")()
		eu := 0
		for _, p := range probes {
			if s.Topo.World.ContinentOf(p.City) == geo.EU {
				eu++
			}
		}
		bd := map[classify.Category]int{}
		contDecisions, allDecisions := 0, 0
		for i := range measurements {
			m := &measurements[i]
			_, confined := m.Continental(s.Topo.World)
			for _, d := range m.Decisions {
				bd[s.Context.Classify(d, classify.Simple)]++
				allDecisions++
				if confined {
					contDecisions++
				}
			}
		}
		return AblationProbeRow{
			Selection:      label,
			Probes:         len(probes),
			EUSharePct:     stats.Pct(eu, len(probes)),
			BestShortPct:   stats.Pct(bd[classify.BestShort], allDecisions),
			ContinentalPct: stats.Pct(contDecisions, allDecisions),
		}
	}
	res.ProbeRows = append(res.ProbeRows,
		row("balanced (paper)", s.Probes, s.Measurements),
		row("raw sample", raw, ms))
}

// computeThresholdAblation sweeps the inference visibility threshold
// and reports the inferred edge count and the downstream Best/Short
// share. Each threshold relabels the snapshots' evidence and
// reclassifies the whole dataset independently, so the sweep fans out
// across the worker pool; rows are recorded in sweep order either way.
func computeThresholdAblation(res *AblationsResult, s *scenario.Scenario, evidence []*inference.Evidence, ds []classify.Decision) {
	thresholds := []float64{0.1, 0.2, 0.3, 0.5}
	rows := parallel.MapStage("experiments/threshold-ablation", thresholds, s.Cfg.RoutingWorkers,
		func(_ int, th float64) AblationThresholdRow {
			gs := make([]*relgraph.Graph, 0, len(evidence))
			for _, ev := range evidence {
				gs = append(gs, ev.Label(th))
			}
			g := inference.Aggregate(gs)
			return AblationThresholdRow{
				Threshold:    th,
				Edges:        g.NumEdges(),
				BestShortPct: bestShortPct(s.Context.WithGraph(g), ds),
			}
		})
	res.ThresholdRows = rows
}

// computeAggregationAblation compares the paper's five-epoch weighted
// majority against using only the latest snapshot (no stale links, but
// also no smoothing of transient inference errors).
func computeAggregationAblation(res *AblationsResult, s *scenario.Scenario, latestEvidence *inference.Evidence, threshold float64, ds []classify.Decision) {
	stop := obs.StartStage("inference/aggregation-latest")
	latest := latestEvidence.Label(threshold)
	stop()
	defer obs.StartStage("classify/ablation-breakdowns")()
	res.AggregationRows = append(res.AggregationRows,
		AblationAggRow{
			Topology:     "5-epoch aggregate (paper)",
			Edges:        s.Context.Graph.NumEdges(),
			BestShortPct: bestShortPct(s.Context, ds),
		},
		AblationAggRow{
			Topology:     "latest epoch only",
			Edges:        latest.NumEdges(),
			BestShortPct: bestShortPct(s.Context.WithGraph(latest), ds),
		})
}
