package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"routelab/internal/asn"
	"routelab/internal/classify"
	"routelab/internal/inference"
	"routelab/internal/obs"
	"routelab/internal/predict"
	"routelab/internal/relgraph"
	"routelab/internal/report"
	"routelab/internal/scenario"
	"routelab/internal/stats"
	"routelab/internal/topology"
)

// --- inference accuracy -----------------------------------------------

// ConfusionRow is one truth-vs-inferred label confusion bucket.
type ConfusionRow struct {
	Truth    string `json:"truth"`
	Inferred string `json:"inferred"`
	N        int    `json:"n"`
}

// AccuracyResult scores the inferred relationship database against
// ground truth — the answer key the paper never had. It quantifies the
// error budget feeding every classification experiment.
type AccuracyResult struct {
	Links               int `json:"links"`
	Correct             int `json:"correct"`
	MissingFromInferred int `json:"missing_from_inferred"`
	Stale               int `json:"stale"`
	Phantom             int `json:"phantom"`
	// TopConfusions are the five largest mislabeled buckets.
	TopConfusions []ConfusionRow `json:"top_confusions"`
}

func accuracy(_ context.Context, env *Env) (Result, error) {
	s := env.S
	truth := relgraph.FromTopology(s.Topo)
	acc := inference.MeasureAccuracy(s.Context.Graph, truth)
	res := &AccuracyResult{
		Links:               acc.Links,
		Correct:             acc.Correct,
		MissingFromInferred: acc.MissingFromInferred,
		Stale:               staleCount(s),
		Phantom:             acc.ExtraInInferred,
	}

	// Per-truth-label confusion counts.
	confusion := map[[2]topology.Rel]int{}
	for _, e := range truth.Edges() {
		if !s.Context.Graph.HasEdge(e.A, e.B) {
			continue
		}
		confusion[[2]topology.Rel{e.Role, s.Context.Graph.Rel(e.A, e.B)}]++
	}
	type row struct {
		truth, inf topology.Rel
		n          int
	}
	var rows []row
	for k, n := range confusion {
		if k[0] != k[1] {
			rows = append(rows, row{k[0], k[1], n})
		}
	}
	// Total order (count desc, then labels) so the top-5 listing does
	// not depend on map iteration order.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		if rows[i].truth != rows[j].truth {
			return rows[i].truth < rows[j].truth
		}
		return rows[i].inf < rows[j].inf
	})
	for i, r := range rows {
		if i >= 5 {
			break
		}
		res.TopConfusions = append(res.TopConfusions, ConfusionRow{
			Truth: r.truth.String(), Inferred: r.inf.String(), N: r.n,
		})
	}
	return res, nil
}

func (r *AccuracyResult) render(w io.Writer) {
	t := report.NewTable("Appendix: inferred topology vs ground truth", "Metric", "Value")
	t.Row("Ground-truth links visible to monitors", r.Links)
	t.Row("Labels correct", r.Correct)
	t.Row("Label accuracy %", stats.Pct(r.Correct, r.Links))
	t.Row("Links invisible to monitors", r.MissingFromInferred)
	t.Row("Stale links (retired but still inferred)", r.Stale)
	t.Row("Phantom links", r.Phantom)
	for i, c := range r.TopConfusions {
		t.Note("top confusion %d: truth=%s inferred=%s (%d links)", i+1, c.Truth, c.Inferred, c.N)
	}
	t.Render(w)
}

// staleCount counts retired ground-truth links the aggregate still
// believes in — the AS3549–Netflix effect.
func staleCount(s *scenario.Scenario) int {
	n := 0
	for _, l := range s.Topo.RetiredLinks {
		if s.Context.Graph.HasEdge(l.Lo, l.Hi) {
			n++
		}
	}
	return n
}

// --- path prediction --------------------------------------------------

// PredictionResult evaluates the Gao–Rexford model as a PATH PREDICTOR
// over the measured campaign — the downstream use case (simulation,
// iPlane-style prediction) whose fidelity the paper's whole
// investigation is about. The exact-match rate is the headline "how
// wrong are our simulators" number.
type PredictionResult struct {
	Paths           int `json:"paths"`
	Predicted       int `json:"predicted"`
	Exact           int `json:"exact"`
	SameLength      int `json:"same_length"`
	FirstHopCorrect int `json:"first_hop_correct"`
}

func prediction(_ context.Context, env *Env) (Result, error) {
	s := env.S
	p := predict.New(s.Context.Graph)
	paths := make([][]asn.ASN, 0, len(s.Measurements))
	for i := range s.Measurements {
		paths = append(paths, s.Measurements[i].ASPath)
	}
	stop := obs.StartStage("predict/evaluate")
	sum := p.Evaluate(paths)
	stop()
	return &PredictionResult{
		Paths:           sum.Paths,
		Predicted:       sum.Predicted,
		Exact:           sum.Exact,
		SameLength:      sum.SameLength,
		FirstHopCorrect: sum.FirstHopCorrect,
	}, nil
}

func (r *PredictionResult) render(w io.Writer) {
	t := report.NewTable("Extension: the model as a path predictor", "Metric", "Value")
	t.Row("Measured paths", r.Paths)
	t.Row("Paths the model could predict", r.Predicted)
	t.Row("Exact-path matches %", stats.Pct(r.Exact, r.Predicted))
	t.Row("Correct length %", stats.Pct(r.SameLength, r.Predicted))
	t.Row("Correct first hop %", stats.Pct(r.FirstHopCorrect, r.Predicted))
	t.Note("the gap between first-hop and exact accuracy is the paper's point: models rank neighbors acceptably but mispredict full paths")
	t.Render(w)
}

// --- §4.4 case studies ------------------------------------------------

// CaseStep is one discovered route in a case study's preference order.
type CaseStep struct {
	NextHop string `json:"next_hop"`
	// Kind is the rendered annotation for notable next hops (e.g.
	// " [research backbone]"), empty otherwise.
	Kind     string `json:"kind,omitempty"`
	Inferred string `json:"inferred"`
	Truth    string `json:"truth"`
	Path     string `json:"path"`
}

// CaseStudy narrates one AS whose discovered preference order breaks
// both model properties.
type CaseStudy struct {
	Target  string     `json:"target"`
	Class   string     `json:"class"`
	Country string     `json:"country"`
	Steps   []CaseStep `json:"steps"`
	// SuffixNote marks the paper's telltale: a later route that is a
	// SUFFIX of the first (the unnecessary-detour pattern).
	SuffixNote bool `json:"suffix_note"`
	// ResearchPreference marks ground-truth research-path preference.
	ResearchPreference bool `json:"research_preference"`
}

// CaseStudiesResult hunts the live scenario for concrete instances of
// the §4.4 violation stories, narrated with their relationships.
type CaseStudiesResult struct {
	Cases []CaseStudy `json:"cases"`
}

func caseStudies(_ context.Context, env *Env) (Result, error) {
	s := env.S
	rng := rand.New(rand.NewSource(env.Seed + 3))
	runs := s.RunAlternatesCampaign(rng)
	res := &CaseStudiesResult{}
	for _, run := range runs {
		if len(res.Cases) >= 3 {
			break
		}
		if s.Context.ClassifyAlternates(run) != classify.AltNeither || len(run.Steps) < 2 {
			continue
		}
		x := s.Topo.AS(run.Target)
		c := CaseStudy{
			Target:             run.Target.String(),
			Class:              x.Class.String(),
			Country:            string(x.HomeCountry),
			ResearchPreference: x.ResearchPreference,
		}
		for _, st := range run.Steps {
			rel := s.Context.Graph.Rel(run.Target, st.Route.NextHop)
			truRel := s.Topo.Rel(run.Target, st.Route.NextHop)
			nh := s.Topo.AS(st.Route.NextHop)
			kind := ""
			if nh != nil && nh.Class == topology.Research {
				kind = " [research backbone]"
			}
			c.Steps = append(c.Steps, CaseStep{
				NextHop:  st.Route.NextHop.String(),
				Kind:     kind,
				Inferred: rel.String(),
				Truth:    truRel.String(),
				Path:     st.Route.Path.String(),
			})
		}
		first := run.Steps[0].Route.Path.Sequence()
		for _, st := range run.Steps[1:] {
			if isSuffix(st.Route.Path.Sequence(), first) {
				c.SuffixNote = true
				break
			}
		}
		res.Cases = append(res.Cases, c)
	}
	return res, nil
}

func (r *CaseStudiesResult) render(w io.Writer) {
	fmt.Fprintln(w, "Section 4.4 case studies: preference orders violating both model properties")
	for i, c := range r.Cases {
		fmt.Fprintf(w, "\ncase %d: %s (%s, %s)\n", i+1, c.Target, c.Class, c.Country)
		for j, st := range c.Steps {
			fmt.Fprintf(w, "  choice #%d: via %s%s, inferred %s (truth %s), path [%s]\n",
				j+1, st.NextHop, st.Kind, st.Inferred, st.Truth, st.Path)
		}
		if c.SuffixNote {
			fmt.Fprintf(w, "  note: the fallback route is a suffix of the first — the first included an unnecessary detour\n")
		}
		if c.ResearchPreference {
			fmt.Fprintf(w, "  ground truth: this AS prefers research paths regardless of business class\n")
		}
	}
	if len(r.Cases) == 0 {
		fmt.Fprintln(w, "  (none found at this seed — paper found 3 among 360 targets)")
	}
	fmt.Fprintln(w)
}

// isSuffix reports whether needle is a suffix of hay.
func isSuffix(needle, hay []asn.ASN) bool {
	if len(needle) == 0 || len(needle) > len(hay) {
		return false
	}
	off := len(hay) - len(needle)
	for i := range needle {
		if hay[off+i] != needle[i] {
			return false
		}
	}
	return true
}
