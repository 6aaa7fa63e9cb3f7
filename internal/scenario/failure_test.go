package scenario

import (
	"math/rand"
	"testing"

	"routelab/internal/classify"
)

// Failure injection: the pipeline must degrade gracefully — fewer or
// unclassifiable measurements, never crashes or corrupt state — when the
// measurement infrastructure misbehaves.

func smallCfg() Config {
	cfg := TestConfig()
	cfg.NumProbes = 60
	cfg.TracesTarget = 400
	cfg.MaxAlternateTargets = 10
	return cfg
}

func TestFailureBlindGeolocation(t *testing.T) {
	cfg := smallCfg()
	cfg.GeoDB.MissRate = 1.0 // every lookup fails
	s, err := Build(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Measurements) == 0 {
		t.Fatal("blind geolocation should not kill the campaign")
	}
	gb := s.Verdicts.GeoClassify()
	total := 0
	for _, n := range gb.Continental {
		total += n
	}
	if total != 0 {
		t.Errorf("continental decisions %d with a blind geolocation DB", total)
	}
	// Domestic analysis finds nothing but must not panic.
	rows := s.Verdicts.DomesticAnalysis()
	for _, r := range rows {
		if r.NonBestShort != 0 {
			t.Errorf("domestic rows nonzero without geolocation: %+v", r)
		}
	}
}

func TestFailureDeafTraceroutes(t *testing.T) {
	cfg := smallCfg()
	cfg.Traceroute.NoReplyRate = 0.9 // almost every router silent
	s, err := Build(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Conversions mostly fail or shrink; whatever survives must still
	// be structurally valid.
	for i := range s.Measurements {
		m := &s.Measurements[i]
		if len(m.ASPath) < 2 {
			t.Fatalf("degenerate measurement survived extraction: %+v", m)
		}
	}
	t.Logf("deaf traceroutes: %d/%d usable", len(s.Measurements), s.TracesIssued)
}

func TestFailureHeavyPoisonFiltering(t *testing.T) {
	cfg := smallCfg()
	cfg.Topology.ASSetFilterRate = 0.9 // almost everyone drops AS_SETs
	s, err := Build(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	runs := s.RunAlternatesCampaign(rand.New(rand.NewSource(4)))
	// Discovery should terminate quickly (poisoned announcements barely
	// propagate) but must not hang or panic.
	for _, r := range runs {
		if len(r.Steps) > 8 {
			t.Errorf("target %v walked %d steps despite heavy filtering", r.Target, len(r.Steps))
		}
	}
	sum := s.Context.SummarizeAlternates(runs)
	if sum.Targets == 0 {
		t.Skip("no targets at this scale")
	}
}

func TestFailureNoVantagePoints(t *testing.T) {
	cfg := smallCfg()
	cfg.NumVantagePeers = 1 // a single monitor: inference starves
	s, err := Build(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Inferred.NumEdges() == 0 {
		t.Fatal("even one monitor sees some edges")
	}
	// Classification still runs; most decisions land in NonBest buckets
	// because the model graph is nearly empty. No panics is the test.
	bd := s.Verdicts.Breakdown(classify.All1)
	total := 0
	for _, n := range bd {
		total += n
	}
	if total == 0 {
		t.Error("no decisions classified")
	}
}
