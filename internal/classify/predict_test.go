package classify

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/obs"
	"routelab/internal/relgraph"
	"routelab/internal/topology"
)

// lineGraph: 1 ← 2 ← 3 (provider chains down to origin 1).
func lineGraph() *relgraph.Graph {
	g := relgraph.New()
	g.Set(2, 1, topology.RelCustomer)
	g.Set(3, 2, topology.RelCustomer)
	return g
}

func TestPredictPath(t *testing.T) {
	// tied adds 3-4-1, a second customer path as short as 3-2-1.
	tied := lineGraph()
	tied.Set(3, 4, topology.RelCustomer)
	tied.Set(4, 1, topology.RelCustomer)
	cases := []struct {
		name  string
		g     *relgraph.Graph
		paths [][]asn.ASN
		// want is the prediction for the first path's endpoints.
		want []asn.ASN
		sum  PredictionSummary
	}{
		{
			name:  "line graph predicts exactly",
			g:     lineGraph(),
			paths: [][]asn.ASN{{3, 2, 1}},
			want:  []asn.ASN{3, 2, 1},
			sum:   PredictionSummary{Paths: 1, Predicted: 1, Exact: 1, SameLength: 1, FirstHopCorrect: 1},
		},
		{
			// A measurement via 4 diverges after the first AS.
			name:  "ties break toward the lower ASN",
			g:     tied,
			paths: [][]asn.ASN{{3, 4, 1}},
			want:  []asn.ASN{3, 2, 1},
			sum:   PredictionSummary{Paths: 1, Predicted: 1, SameLength: 1},
		},
		{
			// A measured path with an extra (fictional) detour hop: the
			// prediction is one AS shorter.
			name:  "a shorter prediction is not the same length",
			g:     lineGraph(),
			paths: [][]asn.ASN{{3, 2, 2, 1}},
			want:  []asn.ASN{3, 2, 1},
			sum:   PredictionSummary{Paths: 1, Predicted: 1, FirstHopCorrect: 1},
		},
		{
			name:  "an unknown source is not predicted",
			g:     lineGraph(),
			paths: [][]asn.ASN{{99, 1}},
			sum:   PredictionSummary{Paths: 1},
		},
		{
			name: "EvaluatePrediction tallies a mixed batch",
			g:    lineGraph(),
			paths: [][]asn.ASN{
				{3, 2, 1}, // exact
				{2, 1},    // exact
				{3, 9, 1}, // diverges after the first AS
				{99, 1},   // unpredictable source
				{1},       // degenerate, skipped
			},
			want: []asn.ASN{3, 2, 1},
			sum:  PredictionSummary{Paths: 4, Predicted: 3, Exact: 2, SameLength: 3, FirstHopCorrect: 2},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cx := newContext(c.g)
			first := c.paths[0]
			if got := cx.PredictPath(first[0], first[len(first)-1]); !slices.Equal(got, c.want) {
				t.Errorf("PredictPath(%v, %v) = %v, want %v", first[0], first[len(first)-1], got, c.want)
			}
			if got := cx.EvaluatePrediction(c.paths); got != c.sum {
				t.Errorf("EvaluatePrediction = %+v, want %+v", got, c.sum)
			}
		})
	}
}

// judgedWorld returns a fresh Context over a TestConfig world's true
// relationships, the true AS paths of every AS toward a few
// destinations' prefixes, and one Decision per hop of those paths. The
// origin evidence is what the paths show, so the PSP criteria mask some
// origin edges and keep others.
func judgedWorld(t *testing.T) (*Context, [][]asn.ASN, []Decision) {
	t.Helper()
	topo := topology.Generate(97, topology.TestConfig())
	dsts := append([]asn.ASN{topo.Names["cdn-major"]}, topo.ASesOfClass(topology.Stub)[:3]...)
	var prefixes []asn.Prefix
	for _, d := range dsts {
		prefixes = append(prefixes, topo.AS(d).Prefixes...)
	}
	rib := bgp.New(topo, 97, obs.Default()).ComputeRIB(obs.Default(), prefixes, bgp.Readers{DataPlane: prefixes}, 0)
	cx := newContext(relgraph.FromTopology(topo))
	var paths [][]asn.ASN
	var ds []Decision
	for _, p := range prefixes {
		for _, a := range topo.ASNs() {
			path := rib.ASPath(a, p)
			if len(path) < 2 {
				continue
			}
			paths = append(paths, path)
			o := path[len(path)-1]
			if cx.OriginEvidence[p] == nil {
				cx.OriginEvidence[p] = map[asn.ASN]bool{}
			}
			cx.OriginEvidence[p][path[len(path)-2]] = true
			cx.EdgeEverAtOrigin[topology.MakeLinkKey(o, path[len(path)-2])] = true
			for i := 0; i+1 < len(path); i++ {
				ds = append(ds, Decision{At: path[i], Via: path[i+1], Prefix: p, DstAS: o, RestLen: len(path) - i - 1})
			}
		}
	}
	if len(paths) == 0 {
		t.Fatal("no AS holds a route toward the chosen destinations")
	}
	return cx, paths, ds
}

// modelEntries is the number of Gao–Rexford results cx holds.
func (cx *Context) modelEntries() int {
	cx.cacheMu.Lock()
	defer cx.cacheMu.Unlock()
	return len(cx.models)
}

// TestEvaluatePredictionAddsNoModel: the predictor reads the judge's
// own model cache, so predicting the paths whose decisions were judged
// computes nothing new (a served tenant does not outgrow its charge).
func TestEvaluatePredictionAddsNoModel(t *testing.T) {
	cx, paths, ds := judgedWorld(t)
	for _, d := range ds {
		for _, ref := range Refinements {
			cx.Classify(d, ref)
		}
	}
	before := cx.modelEntries()
	sum := cx.EvaluatePrediction(paths)
	if sum.Predicted == 0 {
		t.Fatalf("no prediction on a connected topology: %+v", sum)
	}
	if got := cx.modelEntries(); got != before {
		t.Errorf("EvaluatePrediction grew the model cache %d → %d entries", before, got)
	}
}

// TestConcurrentModelCache: goroutines judging under every refinement,
// interleaved with path predictions, on one fresh Context get the
// serial answers, and the cache ends with the serial entry count (the
// first writer wins; no key is stored twice).
func TestConcurrentModelCache(t *testing.T) {
	serial, paths, ds := judgedWorld(t)
	answer := func(cx *Context, i int) string {
		if i < len(ds) {
			d := ds[i]
			cats := make([]Category, 0, len(Refinements))
			for _, ref := range Refinements {
				cats = append(cats, cx.Classify(d, ref))
			}
			return fmt.Sprint(cats)
		}
		m := paths[i-len(ds)]
		return fmt.Sprint(cx.PredictPath(m[0], m[len(m)-1]))
	}
	n := len(ds) + len(paths)
	want := make([]string, n)
	for i := range want {
		want[i] = answer(serial, i)
	}
	cx := serial.WithGraph(serial.Graph)
	const workers = 4
	got := make([]string, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int
			for i := w; i < n; i += workers {
				mine = append(mine, i)
			}
			// Odd workers walk their share backwards, so decisions and
			// predictions toward one destination race.
			if w%2 == 1 {
				slices.Reverse(mine)
			}
			for _, i := range mine {
				got[i] = answer(cx, i)
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d: concurrent %s, serial %s", i, got[i], want[i])
		}
	}
	if a, b := cx.modelEntries(), serial.modelEntries(); a != b {
		t.Errorf("concurrent cache holds %d entries, serial %d", a, b)
	}
}
