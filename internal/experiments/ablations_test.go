package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"routelab/internal/classify"
	"routelab/internal/inference"
	"routelab/internal/relgraph"
)

// TestThresholdRowAtDefaultIsTheBuild: the sweep's row at the build's
// own threshold reads the build's graph and verdicts instead of
// relabelling the evidence and judging every decision again. It must be
// the row that relabelling and rejudging yields.
func TestThresholdRowAtDefaultIsTheBuild(t *testing.T) {
	s := testScenario(t)
	th := inference.DefaultConfig().VisibilityThreshold
	var gs []*relgraph.Graph
	for _, ev := range s.Evidence {
		gs = append(gs, ev.Label(th))
	}
	g := inference.Aggregate(gs)
	want := AblationThresholdRow{
		Threshold:    th,
		Edges:        g.NumEdges(),
		BestShortPct: bestShortPct(s.Context.WithGraph(g).Breakdown(s.Decisions(), classify.Simple)),
	}
	res := &AblationsResult{}
	computeThresholdAblation(res, s, s.Decisions())
	for _, row := range res.ThresholdRows {
		if row.Threshold == th {
			if row != want {
				t.Errorf("threshold %.1f row %+v, relabelled and rejudged %+v", th, row, want)
			}
			return
		}
	}
	t.Fatalf("the sweep %+v has no row at the build's threshold %.1f", res.ThresholdRows, th)
}

// TestConcurrentAblationsShareEvidence: concurrent clients of one served
// tenant all relabel the same Scenario.Evidence and judge through the
// same Context. Four runs at once must each equal a serial run.
func TestConcurrentAblationsShareEvidence(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations rerun the campaign")
	}
	env := &Env{S: testScenario(t), Seed: 7}
	ctx := context.Background()
	want, err := ablations(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Result, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = ablations(ctx, env)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("concurrent run %d differs from the serial run", i)
		}
	}
}
