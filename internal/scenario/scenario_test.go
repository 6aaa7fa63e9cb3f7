package scenario

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/classify"
	"routelab/internal/obs"
	"routelab/internal/peering"
)

// testScenario caches the (comparatively expensive) test scenario.
// testStages are the stages begun on its record that are scenario/build
// or one of Phases, in the order they began.
var (
	testScenario *Scenario
	testStages   []string
)

func getScenario(t *testing.T) *Scenario {
	t.Helper()
	if testScenario == nil {
		rec := obs.NewRegistry(obs.Default())
		cancel := rec.OnStage(func(name string, begin bool) {
			if begin && (name == "scenario/build" || slices.Contains(Phases, name)) {
				testStages = append(testStages, name)
			}
		})
		s, err := Build(TestConfig(), rec)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		testScenario = s
	}
	return testScenario
}

// TestBuildReportsPhases: a build begins, on its record, scenario/build
// and then every one of Phases in order, each once.
func TestBuildReportsPhases(t *testing.T) {
	getScenario(t)
	if want := append([]string{"scenario/build"}, Phases...); !slices.Equal(testStages, want) {
		t.Errorf("stages begun on the build's record %v, want %v", testStages, want)
	}
}

// TestPhaseLinesConcurrent: the printer writes each phase of a build
// once, in order, and nothing for a phase begun out of order — here a
// campaign re-run between two builds — while request stages begin on
// the same record from other goroutines.
func TestPhaseLinesConcurrent(t *testing.T) {
	var out bytes.Buffer
	rec := obs.NewRegistry(nil)
	rec.OnStage(PhaseLines(&out))
	build := func() {
		for _, name := range Phases {
			rec.StartStage(name)()
		}
	}
	var wg, started sync.WaitGroup
	stop := make(chan struct{})
	for i := range 4 {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			rec.StartStage(fmt.Sprintf("service/family-%d", i))()
			started.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rec.StartStage(fmt.Sprintf("service/family-%d", i))()
				}
			}
		}()
	}
	started.Wait()
	build()
	rec.StartStage("scenario/campaign")()
	build()
	close(stop)
	wg.Wait()

	var want strings.Builder
	for range 2 {
		for i, name := range Phases {
			fmt.Fprintf(&want, "[%d/%d] %s\n", i+1, len(Phases), name)
		}
	}
	if out.String() != want.String() {
		t.Errorf("printed\n%swant\n%s", out.String(), want.String())
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
	if len(s.Evidence) != s.Cfg.HistoricEpochs+s.Cfg.CurrentEpochs {
		t.Fatalf("evidence of %d snapshots", len(s.Evidence))
	}
}

func TestSimpleBreakdownShape(t *testing.T) {
	s := getScenario(t)
	ds := s.Decisions()
	if len(ds) < 500 {
		t.Fatalf("only %d decisions", len(ds))
	}
	bd := s.Verdicts.Breakdown(classify.Simple)
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
	base := s.Verdicts.Breakdown(classify.Simple)[classify.BestShort]
	for _, ref := range []classify.Refinement{classify.Sibs, classify.All1} {
		got := s.Verdicts.Breakdown(ref)[classify.BestShort]
		if got < base {
			t.Errorf("%s Best/Short %d < Simple %d — refinement made things worse", ref, got, base)
		}
	}
	all1 := s.Verdicts.Breakdown(classify.All1)[classify.BestShort]
	all2 := s.Verdicts.Breakdown(classify.All2)[classify.BestShort]
	if all2 > all1 {
		t.Errorf("All-2 (%d) explained more than All-1 (%d); criteria 2 is the conservative one", all2, all1)
	}
}

func TestMagnetCampaignProducesDecisions(t *testing.T) {
	s := getScenario(t)
	mc := s.RunMagnetCampaign(rand.New(rand.NewSource(9)))
	if len(s.Magnet) != len(s.Testbed.Muxes) {
		t.Fatalf("%d runs", len(s.Magnet))
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

// TestAlternatesCampaignCountsIndependentOfWorkers: one campaign on the
// serial path and on four workers, each from an empty discovery memo,
// gives the same results and costs the engine the same forks, events
// and changes, which is what the ledger's exact-count check compares
// across its serial and parallel passes.
func TestAlternatesCampaignCountsIndependentOfWorkers(t *testing.T) {
	s := getScenario(t)
	s.Testbed.AnycastBase(s.Testbed.Prefixes[0]) // built once, outside the counts
	counters := []string{"bgp.fork.calls", "bgp.converge.events", "bgp.converge.changes"}
	run := func(workers int) ([]peering.AlternateResult, []int64) {
		sw := *s
		sw.Cfg.RoutingWorkers = workers
		sw.ForgetAlternates()
		before := make([]int64, len(counters))
		for i, name := range counters {
			before[i] = testScenario.Record().Counter(name).Value()
		}
		runs := sw.RunAlternatesCampaign(rand.New(rand.NewSource(10)))
		for i, name := range counters {
			before[i] = testScenario.Record().Counter(name).Value() - before[i]
		}
		return runs, before
	}
	serial, serialCounts := run(1)
	wide, wideCounts := run(4)
	if len(serial) == 0 {
		t.Fatal("no targets")
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Error("the campaign's results differ between workers=1 and workers=4")
	}
	for i, name := range counters {
		if serialCounts[i] == 0 || serialCounts[i] != wideCounts[i] {
			t.Errorf("%s: %d on one worker, %d on four", name, serialCounts[i], wideCounts[i])
		}
	}
}

// TestAlternatesCampaignAfterAnotherMatchesFresh: a campaign run after
// another on the same scenario returns what it returns on a scenario
// that discovered nothing before, although it walks only the targets
// the first campaign did not draw; run again, it walks none.
func TestAlternatesCampaignAfterAnotherMatchesFresh(t *testing.T) {
	s := getScenario(t)
	s.Testbed.AnycastBase(s.Testbed.Prefixes[0]) // built once, outside the counts
	fresh := func() *Scenario {
		sw := *s
		sw.ForgetAlternates()
		return &sw
	}
	campaign := func(sc *Scenario, seed int64) []peering.AlternateResult {
		return sc.RunAlternatesCampaign(rand.New(rand.NewSource(seed)))
	}
	forks := testScenario.Record().Counter("bgp.fork.calls")
	want := campaign(fresh(), 11)

	sw := fresh()
	first := campaign(sw, 10)
	shared := 0
	for _, r := range want {
		if slices.ContainsFunc(first, func(f peering.AlternateResult) bool { return f.Target == r.Target }) {
			shared++
		}
	}
	if shared == 0 || shared == len(want) {
		t.Fatalf("campaigns share %d of %d targets: the check needs some shared and some not", shared, len(want))
	}
	before := forks.Value()
	if got := campaign(sw, 11); !reflect.DeepEqual(got, want) {
		t.Error("a campaign after another differs from the same campaign on a fresh scenario")
	}
	if forks.Value() == before {
		t.Error("the second campaign took no fork, though it drew targets the first did not")
	}
	before = forks.Value()
	if got := campaign(sw, 10); !reflect.DeepEqual(got, first) {
		t.Error("a repeated campaign differs from its first run")
	}
	if got := forks.Value() - before; got != 0 {
		t.Errorf("a repeated campaign took %d forks, want 0", got)
	}
}

// TestConcurrentAlternatesMatchSerial: goroutines asking one scenario
// that discovered nothing for overlapping target sets at once get what
// the same requests get one after another, under -race.
func TestConcurrentAlternatesMatchSerial(t *testing.T) {
	s := getScenario(t)
	all := s.Topo.ASNs()
	const callers = 4
	sets := make([][]asn.ASN, callers)
	for g := range sets {
		// Overlapping windows, each a third of the ASes, asked in a
		// different order by every caller.
		lo := g * len(all) / (2 * callers)
		set := slices.Clone(all[lo : lo+len(all)/3])
		if g%2 == 1 {
			slices.Reverse(set)
		}
		sets[g] = set
	}
	serial := *s
	serial.ForgetAlternates()
	want := make([][]peering.AlternateResult, callers)
	for g, set := range sets {
		want[g] = serial.Alternates(set)
	}

	shared := *s
	shared.ForgetAlternates()
	got := make([][]peering.AlternateResult, callers)
	var wg sync.WaitGroup
	for g, set := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = shared.Alternates(set)
		}()
	}
	wg.Wait()
	for g := range sets {
		if !reflect.DeepEqual(got[g], want[g]) {
			t.Errorf("caller %d: concurrent results differ from the serial run", g)
		}
	}
}

// TestBuildDeterministic builds one config on the serial reference path
// and on a pool: the campaigns, the verdict columns and the magnet runs
// must agree.
func TestBuildDeterministic(t *testing.T) {
	cfg := TestConfig()
	cfg.TracesTarget = 300
	cfg.NumProbes = 60
	cfg.RoutingWorkers = 1
	a, err := Build(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RoutingWorkers = 4
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
	for _, ref := range classify.Refinements {
		if !slices.Equal(a.Verdicts.Column(ref), b.Verdicts.Column(ref)) {
			t.Errorf("%s verdict columns differ between workers=1 and workers=4", ref)
		}
	}
	if len(a.Magnet) != len(a.Testbed.Muxes) {
		t.Errorf("%d magnet runs for %d muxes", len(a.Magnet), len(a.Testbed.Muxes))
	}
	if !reflect.DeepEqual(a.Magnet, b.Magnet) {
		t.Error("magnet runs differ between workers=1 and workers=4")
	}
}

// TestConcurrentBuildsKeepTheirOwnRecords: two builds of different
// worlds running at once each count on their own record what the same
// build counts alone, and the process registry gains exactly their sum.
// bgp.fork.recycled counts sync.Pool hits, which the runtime may drop at
// any collection (and at random under -race), so it is held only to the
// sum.
func TestConcurrentBuildsKeepTheirOwnRecords(t *testing.T) {
	seeds := []int64{3, 4}
	config := func(seed int64) Config {
		cfg := TestConfig()
		cfg.Seed = seed
		cfg.RoutingWorkers = 1
		return cfg
	}
	alone := make([]map[string]int64, len(seeds))
	for i, seed := range seeds {
		rec := obs.NewRegistry(obs.Default())
		if _, err := Build(config(seed), rec); err != nil {
			t.Fatal(err)
		}
		alone[i] = rec.Snapshot().Counters
	}

	before := obs.Snap().Counters
	recs := []*obs.Registry{obs.NewRegistry(obs.Default()), obs.NewRegistry(obs.Default())}
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Build(config(seed), recs[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	after := obs.Snap().Counters

	together := make([]map[string]int64, len(seeds))
	for i := range seeds {
		together[i] = recs[i].Snapshot().Counters
		for name, want := range alone[i] {
			if got := together[i][name]; got != want && name != "bgp.fork.recycled" {
				t.Errorf("seed %d: %s = %d beside another build, %d alone", seeds[i], name, got, want)
			}
		}
		if len(together[i]) != len(alone[i]) {
			t.Errorf("seed %d: %d counters beside another build, %d alone", seeds[i], len(together[i]), len(alone[i]))
		}
	}
	for name, n := range after {
		if got, want := n-before[name], together[0][name]+together[1][name]; got != want {
			t.Errorf("process %s moved by %d, the two records sum to %d", name, got, want)
		}
	}
}
