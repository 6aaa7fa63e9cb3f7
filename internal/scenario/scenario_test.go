package scenario

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"routelab/internal/classify"
	"routelab/internal/obs"
)

// testScenario caches the (comparatively expensive) test scenario. The
// rest record what its build reported: the phase index of every Logf
// call, every scenario/ stage it began, and the last Logf index at each
// of those begins.
var (
	testScenario  *Scenario
	testPhases    []int
	testStages    []string
	testAnnounced []int
)

func getScenario(t *testing.T) *Scenario {
	t.Helper()
	if testScenario == nil {
		cancel := obs.OnStage(func(name string, begin bool) {
			if begin && strings.HasPrefix(name, "scenario/") && name != "scenario/build" {
				last := -1
				if n := len(testPhases); n > 0 {
					last = testPhases[n-1]
				}
				testStages = append(testStages, name)
				testAnnounced = append(testAnnounced, last)
			}
		})
		s, err := Build(TestConfig(), func(phase int, format string, args ...any) {
			testPhases = append(testPhases, phase)
			t.Logf(format, args...)
		})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		testScenario = s
	}
	return testScenario
}

// TestBuildReportsPhases: Build announces every phase once, in order, to
// Logf before its stage timer begins, and the stage timers it begins
// are Phases, in that order.
func TestBuildReportsPhases(t *testing.T) {
	getScenario(t)
	want := make([]int, len(Phases))
	for i := range want {
		want[i] = i
	}
	if got := slices.Compact(slices.Clone(testPhases)); !slices.Equal(got, want) {
		t.Errorf("Logf phase indices %v, want %v in order", testPhases, want)
	}
	if !slices.Equal(testStages, Phases) {
		t.Errorf("stages begun %v, want Phases %v", testStages, Phases)
	}
	if !slices.Equal(testAnnounced, want) {
		t.Errorf("Logf index at each stage begin %v, want %v", testAnnounced, want)
	}
}

func TestBuildProducesUsableCampaign(t *testing.T) {
	s := getScenario(t)
	if len(s.Measurements) < len(s.Probes)/2 {
		t.Fatalf("only %d usable measurements from %d probes", len(s.Measurements), len(s.Probes))
	}
	if s.DestinationASes() < 5 {
		t.Errorf("only %d destination ASes — off-net caches not spreading targets", s.DestinationASes())
	}
	if s.Inferred.NumEdges() == 0 {
		t.Fatal("empty inferred graph")
	}
	if len(s.Snapshots) != s.Cfg.HistoricEpochs+s.Cfg.CurrentEpochs {
		t.Fatalf("%d snapshots", len(s.Snapshots))
	}
}

func TestSimpleBreakdownShape(t *testing.T) {
	s := getScenario(t)
	ds := s.Decisions()
	if len(ds) < 500 {
		t.Fatalf("only %d decisions", len(ds))
	}
	bd := s.Context.Breakdown(ds, classify.Simple)
	total := 0
	for _, n := range bd {
		total += n
	}
	bestShort := float64(bd[classify.BestShort]) / float64(total)
	t.Logf("Simple breakdown: %v (Best/Short %.1f%%)", bd, 100*bestShort)
	// Paper band: 64.7% Best/Short, 14-35%% unexplained. Accept a loose
	// band here; the full-scale calibration test pins it tighter.
	if bestShort < 0.45 || bestShort > 0.92 {
		t.Errorf("Best/Short fraction %.2f wildly out of band", bestShort)
	}
}

func TestRefinementsOnlyImprove(t *testing.T) {
	s := getScenario(t)
	ds := s.Decisions()
	base := s.Context.Breakdown(ds, classify.Simple)[classify.BestShort]
	for _, ref := range []classify.Refinement{classify.Sibs, classify.All1} {
		got := s.Context.Breakdown(ds, ref)[classify.BestShort]
		if got < base {
			t.Errorf("%s Best/Short %d < Simple %d — refinement made things worse", ref, got, base)
		}
	}
	all1 := s.Context.Breakdown(ds, classify.All1)[classify.BestShort]
	all2 := s.Context.Breakdown(ds, classify.All2)[classify.BestShort]
	if all2 > all1 {
		t.Errorf("All-2 (%d) explained more than All-1 (%d); criteria 2 is the conservative one", all2, all1)
	}
}

func TestMagnetCampaignProducesDecisions(t *testing.T) {
	s := getScenario(t)
	mc := s.RunMagnetCampaign(rand.New(rand.NewSource(9)))
	if len(mc.Runs) != len(s.Testbed.Muxes) {
		t.Fatalf("%d runs", len(mc.Runs))
	}
	if len(mc.FeedDecisions) == 0 || len(mc.TraceDecisions) == 0 {
		t.Fatalf("empty decision sets: feed=%d trace=%d", len(mc.FeedDecisions), len(mc.TraceDecisions))
	}
	bd := s.Context.MagnetBreakdown(mc.FeedDecisions)
	total := 0
	for _, n := range bd {
		total += n
	}
	if total == 0 {
		t.Fatal("no classifiable feed decisions")
	}
	t.Logf("feed magnet breakdown: %v", bd)
}

func TestAlternatesCampaign(t *testing.T) {
	s := getScenario(t)
	runs := s.RunAlternatesCampaign(rand.New(rand.NewSource(10)))
	if len(runs) == 0 {
		t.Fatal("no targets")
	}
	sum := s.Context.SummarizeAlternates(runs)
	if sum.Targets == 0 || sum.Announcements == 0 {
		t.Fatalf("summary: %+v", sum)
	}
	t.Logf("alternates: %d targets, verdicts %v, %d announcements, links %d/%d missing (%d poison-only)",
		sum.Targets, sum.Verdicts, sum.Announcements,
		sum.LinksMissing, sum.LinksObserved, sum.LinksOnlyPoisoned)
	if sum.Verdicts[classify.AltBestShort] == 0 {
		t.Error("nobody followed Best&Shortest — implausible")
	}
}

func TestBuildDeterministic(t *testing.T) {
	cfg := TestConfig()
	cfg.TracesTarget = 300
	cfg.NumProbes = 60
	a, err := Build(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Measurements) != len(b.Measurements) || a.TracesIssued != b.TracesIssued {
		t.Fatalf("same config produced different campaigns: %d/%d vs %d/%d",
			len(a.Measurements), a.TracesIssued, len(b.Measurements), b.TracesIssued)
	}
	if a.Inferred.NumEdges() != b.Inferred.NumEdges() {
		t.Error("inferred graphs differ across identical builds")
	}
}
