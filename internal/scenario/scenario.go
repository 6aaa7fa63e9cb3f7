// Package scenario wires the whole reproduction together: it generates
// the ground-truth Internet, converges routing for the current and
// historical epochs, collects monitor feeds, runs relationship/sibling
// inference, deploys the Atlas platform, executes the traceroute
// campaign, and assembles the classify.Context every experiment uses.
//
// Building a full-scale scenario is expensive (two full RIB
// computations); experiments share one Scenario instance.
//
// A built Scenario keeps what its readers use, not what it was built
// from. The monitor snapshots are reduced to their threshold-free
// inference evidence (Evidence), which the ablations relabel, and are
// freed when Build returns: every feed path of five epochs would
// otherwise stay resident, and charged to a served tenant, for one
// re-gathering of that same evidence.
//
// # Concurrency
//
// Build runs its independent units of work — per-prefix convergence,
// per-probe traceroute generation, per-snapshot inference, per-mux
// magnet runs, per-refinement judging — through internal/parallel,
// bounded by Config.RoutingWorkers; alternate-route discovery
// (Alternates, per subtree of its poison-sequence walk) does the same.
// Results are merged
// in a stable order, so a build is byte-identical for any worker count.
// Every stage that consumes the build's master rand.Rand does so
// serially, BEFORE fanning out (the campaign derives one seed per probe
// up front); worker functions only read the sealed topology, the
// engine, and the immutable RIB.
//
// Everything a seed does not choose is computed by Build: the magnet
// runs (Magnet) with whatever observing them does not draw, and the
// verdict on every measured decision under every refinement (Verdicts). A built Scenario is then read-only and safe for
// concurrent readers, with one lock of its own and one exception. The
// lock guards what Alternates has discovered, which grows by each
// target first asked for: Build discovers none, so the CLI walks only
// the targets its campaigns draw, and a served tenant asks for every
// AS before it is charged. The exception: methods taking a *rand.Rand
// (Campaign, RunMagnetCampaign, RunAlternatesCampaign) mutate that rand
// and must not share it across goroutines. Context's model cache is
// internally synchronized (see classify.Context), and the judge phase
// fills it for every decision of the campaign, so reading the
// scenario's own figures and tables leaves them as Build left them.
package scenario

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"

	"routelab/internal/asn"
	"routelab/internal/atlas"
	"routelab/internal/bgp"
	"routelab/internal/classify"
	"routelab/internal/complexrel"
	"routelab/internal/geodb"
	"routelab/internal/inference"
	"routelab/internal/ipasmap"
	"routelab/internal/lookingglass"
	"routelab/internal/obs"
	"routelab/internal/parallel"
	"routelab/internal/peering"
	"routelab/internal/relgraph"
	"routelab/internal/siblings"
	"routelab/internal/topology"
	"routelab/internal/traceroute"
	"routelab/internal/vantage"
)

// Config sizes a scenario run.
type Config struct {
	Seed     int64
	Topology topology.Config

	// RoutingWorkers bounds the worker pool behind every parallel stage
	// of the build and the active campaigns (per-prefix convergence,
	// per-probe traceroutes, per-snapshot inference, per-mux magnet
	// runs, per-subtree alternate discovery). <= 0 selects GOMAXPROCS;
	// 1 forces the serial reference path. The output is byte-identical
	// for any value — see internal/parallel for the contract.
	RoutingWorkers int

	// NumVantagePeers is the monitor feed count per epoch.
	NumVantagePeers int
	// HistoricEpochs+CurrentEpochs snapshots feed inference (3+2 = the
	// paper's five monthly snapshots; the boundary is where links
	// retire).
	HistoricEpochs, CurrentEpochs int

	// NumProbes is the balanced Atlas sample size (paper: 1,998).
	NumProbes int
	// TracesTarget approximates the campaign size (paper: 28,510); each
	// selected probe measures TracesTarget/NumProbes of the hostnames.
	TracesTarget int

	// ActiveProbes (RIPE) and PlanetLabNodes observe the PEERING
	// experiments' data plane (paper: 96 + ~200).
	ActiveProbes, PlanetLabNodes int
	// MaxAlternateTargets caps the §4.4 discovery campaign (0 = all
	// observed targets).
	MaxAlternateTargets int

	Traceroute traceroute.Config
	GeoDB      geodb.Config
	// ComplexCoverage is how complete the published hybrid/partial
	// dataset is.
	ComplexCoverage float64
}

// DefaultConfig is the paper-scale scenario.
func DefaultConfig() Config {
	return Config{
		Seed:            2015,
		Topology:        topology.DefaultConfig(),
		NumVantagePeers: 26,
		HistoricEpochs:  3,
		CurrentEpochs:   2,
		NumProbes:       1998,
		TracesTarget:    28510,
		ActiveProbes:    96,
		PlanetLabNodes:  200,
		Traceroute:      traceroute.DefaultConfig(),
		GeoDB:           geodb.DefaultConfig(),
		ComplexCoverage: 0.9,
	}
}

// TestConfig is a fast small-scale scenario for tests.
func TestConfig() Config {
	c := DefaultConfig()
	c.Topology = topology.TestConfig()
	c.NumVantagePeers = 25
	c.NumProbes = 240
	c.TracesTarget = 2400
	c.ActiveProbes = 24
	c.PlanetLabNodes = 30
	c.MaxAlternateTargets = 60
	return c
}

// Scenario is a fully-built reproduction environment.
type Scenario struct {
	Cfg    Config
	Topo   *topology.Topology
	Engine *bgp.Engine
	// RIB is the CURRENT routing state as far as it is read: every
	// prefix at the current epochs' collector peers, every AS toward the
	// prefixes a traceroute can be addressed into (bgp.Readers; any other
	// read panics).
	RIB *bgp.RIB

	// Evidence is what each monitor snapshot, in epoch order, says about
	// its links before a visibility threshold is chosen: Inferred is
	// their labelling at the build's threshold, aggregated, and the
	// threshold ablation relabels them. The snapshots themselves are not
	// kept; nothing after Build reads a feed path.
	Evidence []*inference.Evidence
	Inferred *relgraph.Graph
	Mapper   *ipasmap.Mapper
	GeoDB    *geodb.DB
	Siblings *siblings.Groups
	Complex  *complexrel.Dataset
	Platform *atlas.Platform
	// Probes is the balanced Atlas selection of the campaign.
	Probes []atlas.Probe

	// LookingGlasses are the operator route servers used for the §4.3
	// validation.
	LookingGlasses *lookingglass.Directory

	Context      *classify.Context
	Measurements []classify.Measurement
	// TracesIssued counts all traceroutes, including unusable ones.
	TracesIssued int
	// Verdicts is every decision of Measurements judged under every
	// Figure 1 refinement (Context.Judge): what Figures 1–3, Tables 3–4
	// and /v1/classify read.
	Verdicts *classify.Verdicts

	Testbed *peering.Testbed
	// Magnet holds one §3.2 magnet run per testbed mux, in mux order:
	// a fixed function of the testbed, which RunMagnetCampaign observes.
	Magnet []peering.MagnetResult
	// magnetViews is what RunMagnetCampaign reads of Magnet whatever its
	// observers, aligned to its runs and their Observations.
	magnetViews [][]magnetView
	// alternates keeps every discovery result Alternates has computed.
	alternates *alternatesMemo
	rec        *obs.Registry
}

// Record returns the obs record the scenario was built on, where all
// later work on it records too: the alternates walk, a re-run campaign,
// each experiment's stages and run count.
func (s *Scenario) Record() *obs.Registry { return s.rec }

// Phases are the stages of Build, named as their obs stage timers, in
// the order Build begins them on its record: a build's progress is the
// last of them begun there.
var Phases = []string{
	"scenario/topology",
	"scenario/testbed",
	"scenario/converge-historical",
	"scenario/converge-current",
	"scenario/snapshots",
	"scenario/inference",
	"scenario/atlas",
	"scenario/campaign",
	"scenario/lookingglass",
	"scenario/magnet",
	"scenario/judge",
}

// PhaseLines returns the stage listener both binaries print build
// progress through: a line to w as a build begins each of Phases,
// "[4/11] scenario/converge-current". It prints Phases[0] whenever it
// begins and another phase only after the one before it, so a campaign
// re-run on a built scenario prints nothing; any other stage (a store's
// listener hears every request) returns before the lock.
func PhaseLines(w io.Writer) func(name string, begin bool) {
	var mu sync.Mutex
	next := 0 // the index in Phases a build begins next
	return func(name string, begin bool) {
		if i := slices.Index(Phases, name); begin && i >= 0 {
			mu.Lock()
			if i == 0 || i == next {
				fmt.Fprintf(w, "[%d/%d] %s\n", i+1, len(Phases), name)
				next = i + 1
			}
			mu.Unlock()
		}
	}
}

// Build assembles the scenario and records every stage and counter of
// the build on rec, once: scenario/build around the phases Phases names,
// the engines' bgp.* counts, and the headline counts (ASes, links,
// snapshots, traces, decisions) as scenario.* counters. rec is usually a
// child of the process registry, obs.NewRegistry(obs.Default()); nil
// records on the process registry itself. The scenario keeps rec (Record).
func Build(cfg Config, rec *obs.Registry) (*Scenario, error) {
	return build(cfg, rec, nil)
}

// build is Build with a hook for the monitor snapshots, which a built
// Scenario does not keep: keep, when non-nil, hears them as soon as they
// are collected. Only the tests pass one.
func build(cfg Config, rec *obs.Registry, keep func([]*vantage.Snapshot)) (*Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rec == nil {
		rec = obs.Default()
	}
	defer rec.StartStage("scenario/build")()
	rec.Counter("scenario.builds").Inc()
	s := &Scenario{Cfg: cfg, alternates: new(alternatesMemo), rec: rec}
	rng := rand.New(rand.NewSource(cfg.Seed))

	stop := rec.StartStage("scenario/topology")
	s.Topo = topology.Generate(cfg.Seed, cfg.Topology)
	s.Engine = bgp.New(s.Topo, cfg.Seed, rec)
	stop()
	rec.Counter("scenario.topology.ases").Add(int64(s.Topo.NumASes()))
	rec.Counter("scenario.topology.links").Add(int64(s.Topo.NumLinks()))
	rec.Counter("scenario.topology.prefixes").Add(int64(len(s.Topo.OriginatedPrefixes())))

	stop = rec.StartStage("scenario/testbed")
	tb, err := peering.NewTestbed(s.Engine)
	stop()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s.Testbed = tb

	// Who reads the two RIBs is known before either is converged, and is
	// all they keep (bgp.Readers): the collectors' peers see every prefix,
	// the traceroutes and looking glasses every AS, but only toward the
	// addresses DNS answers with and the testbed's. The peer draws are the
	// build rng's first use, as they were when each epoch drew its own
	// just before collecting.
	topoHist := s.Topo.Restored()
	epochs := cfg.HistoricEpochs + cfg.CurrentEpochs
	peers := make([][]asn.ASN, epochs)
	for epoch := range peers {
		topoFor := topoHist
		if epoch >= cfg.HistoricEpochs {
			topoFor = s.Topo
		}
		peers[epoch] = vantage.SelectPeers(topoFor, rng, cfg.NumVantagePeers)
	}
	histPeers := slices.Concat(peers[:cfg.HistoricEpochs]...)
	curReaders := bgp.Readers{
		Collectors: slices.Concat(peers[cfg.HistoricEpochs:]...),
		DataPlane:  dataPlanePrefixes(s.Topo, tb.Prefixes),
	}

	stop = rec.StartStage("scenario/converge-historical")
	ribHist := bgp.New(topoHist, cfg.Seed, rec).ComputeRIB(rec, topoHist.OriginatedPrefixes(), bgp.Readers{Collectors: histPeers}, cfg.RoutingWorkers)
	stop()
	stop = rec.StartStage("scenario/converge-current")
	s.RIB = s.Engine.ComputeRIB(rec, s.Topo.OriginatedPrefixes(), curReaders, cfg.RoutingWorkers)
	stop()

	s.Siblings = siblings.Infer(s.Topo.Registry, s.Topo.DNS)

	stop = rec.StartStage("scenario/snapshots")
	infCfg := inference.DefaultConfig()
	infCfg.SameOrg = s.Siblings.SameOrg
	snaps := make([]*vantage.Snapshot, 0, epochs)
	for epoch := range peers {
		src := ribHist
		if epoch >= cfg.HistoricEpochs {
			src = s.RIB
		}
		snaps = append(snaps, vantage.Collect(src, peers[epoch], epoch))
	}
	stop()
	rec.Counter("scenario.snapshots").Add(int64(len(snaps)))
	if keep != nil {
		keep(snaps)
	}
	type inferred struct {
		ev *inference.Evidence
		g  *relgraph.Graph
	}
	per := parallel.MapStage(rec, "scenario/inference", snaps, cfg.RoutingWorkers,
		func(_ int, snap *vantage.Snapshot) inferred {
			ev := inference.Gather(snap, infCfg)
			return inferred{ev, ev.Label(infCfg.VisibilityThreshold)}
		})
	graphs := make([]*relgraph.Graph, len(per))
	for i, p := range per {
		s.Evidence = append(s.Evidence, p.ev)
		graphs[i] = p.g
	}
	s.Inferred = inference.Aggregate(graphs)
	rec.Counter("scenario.inference.edges").Add(int64(s.Inferred.NumEdges()))

	latest := snaps[len(snaps)-1]
	s.Mapper = ipasmap.FromSnapshot(latest)
	s.GeoDB = geodb.New(s.Topo, cfg.GeoDB)
	s.Complex = complexrel.FromGroundTruth(s.Topo, rng, cfg.ComplexCoverage)

	// §4.3 evidence from the CURRENT epochs only.
	originEv := make(map[asn.Prefix]map[asn.ASN]bool)
	edgeEver := make(map[topology.LinkKey]bool)
	for _, snap := range snaps[cfg.HistoricEpochs:] {
		for p, ns := range snap.OriginNeighbors() {
			m := originEv[p]
			if m == nil {
				m = make(map[asn.ASN]bool)
				originEv[p] = m
			}
			origin := s.Topo.OriginOf(p)
			for n := range ns {
				m[n] = true
				if !origin.IsZero() {
					edgeEver[topology.MakeLinkKey(origin, n)] = true
				}
			}
		}
	}

	cables := make(map[asn.ASN]bool)
	for _, a := range s.Topo.ASesOfClass(topology.CableOp) {
		cables[a] = true
	}
	s.Context = &classify.Context{
		Graph:            s.Inferred,
		Siblings:         s.Siblings,
		Complex:          s.Complex,
		OriginEvidence:   originEv,
		EdgeEverAtOrigin: edgeEver,
		Registry:         s.Topo.Registry,
		World:            s.Topo.World,
		CableASes:        cables,
	}

	stop = rec.StartStage("scenario/atlas")
	s.Platform = atlas.NewPlatform(s.Topo, cfg.Seed)
	s.Probes = s.Platform.SelectBalanced(rng, cfg.NumProbes)
	stop()
	rec.Counter("scenario.probes.selected").Add(int64(len(s.Probes)))

	if s.Measurements, s.TracesIssued, err = s.Campaign(s.Probes, cfg.TracesTarget, rng); err != nil {
		return nil, err
	}
	decisions := 0
	for i := range s.Measurements {
		decisions += len(s.Measurements[i].Decisions)
	}
	rec.Counter("scenario.traces.issued").Add(int64(s.TracesIssued))
	rec.Counter("scenario.traces.usable").Add(int64(len(s.Measurements)))
	rec.Counter("scenario.decisions").Add(int64(decisions))

	// Roughly one in five transit operators runs a public route server
	// (the paper found 28 of 149 candidate neighbors).
	stop = rec.StartStage("scenario/lookingglass")
	s.LookingGlasses = lookingglass.Deploy(s.Topo, s.RIB, rng, 0.2)
	stop()

	// The last two phases draw nothing from rng: they compute once what
	// every reader of the scenario would otherwise recompute per request.
	s.Magnet = s.runMagnets()
	s.magnetViews = magnetViews(s.Magnet)

	stop = rec.StartStage("scenario/judge")
	s.Verdicts = s.Context.Judge(s.Measurements, cfg.RoutingWorkers)
	stop()

	return s, nil
}

// dataPlanePrefixes lists the originated prefixes a packet of this
// scenario can be addressed into: those overlapping a prefix DNS answers
// from or a testbed prefix. Overlapping, not equal, because forwarding is
// longest-prefix match: an address inside a serving /24 is routed on the
// covering announcement by an AS the /24 never reached, and an address
// inside a serving /18 on any more specific announced within it.
func dataPlanePrefixes(topo *topology.Topology, testbed []asn.Prefix) []asn.Prefix {
	dsts := append(topo.DNS.ServingPrefixes(), testbed...)
	var out []asn.Prefix
	for _, p := range topo.OriginatedPrefixes() {
		if slices.ContainsFunc(dsts, func(d asn.Prefix) bool { return p.ContainsPrefix(d) || d.ContainsPrefix(p) }) {
			out = append(out, p)
		}
	}
	return out
}

// Campaign runs a traceroute campaign from an arbitrary probe set (the
// ablation experiments re-run it with alternative probe selections) and
// returns the usable measurements plus the raw trace count, recording
// its scenario/campaign stage on the scenario's Record.
//
// Probes measure independently, so the campaign fans out one probe per
// worker. Determinism survives the fan-out because the shared rng is
// consumed serially, up front: one derived seed per probe, each worker
// owning its own rand.Rand. Trace IDs are renumbered into one global
// sequence at the merge barrier, in probe order.
func (s *Scenario) Campaign(probes []atlas.Probe, target int, rng *rand.Rand) ([]classify.Measurement, int, error) {
	hostnames := s.Topo.DNS.Hostnames()
	if len(hostnames) == 0 {
		return nil, 0, fmt.Errorf("scenario: topology has no content hostnames")
	}
	if len(probes) == 0 {
		return nil, 0, fmt.Errorf("scenario: empty probe set")
	}
	perProbe := target / len(probes)
	if perProbe < 1 {
		perProbe = 1
	}
	if perProbe > len(hostnames) {
		perProbe = len(hostnames)
	}
	tracer := traceroute.New(s.Topo, s.RIB, s.Cfg.Traceroute)
	seeds := make([]int64, len(probes))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	type probeRun struct {
		ms []classify.Measurement
		// issued counts this probe's resolved traces; measurements carry
		// their probe-local issue number in TraceID until the merge.
		issued int
	}
	runs := parallel.MapStage(s.rec, "scenario/campaign", probes, s.Cfg.RoutingWorkers, func(i int, probe atlas.Probe) probeRun {
		prng := rand.New(rand.NewSource(seeds[i]))
		upstreams := s.upstreamsOf(probe.AS)
		probeCont := s.Topo.World.ContinentOf(probe.City)
		var run probeRun
		for _, hi := range prng.Perm(len(hostnames))[:perProbe] {
			h := hostnames[hi]
			ans, err := s.Topo.DNS.Resolve(h.Name, probe.AS, probeCont, upstreams, prng)
			if err != nil {
				continue
			}
			run.issued++
			tr := tracer.Trace(probe.AS, probe.City, ans.Addr)
			m, ok := classify.Extract(run.issued, tr, s.Mapper, s.GeoDB)
			if !ok {
				continue
			}
			run.ms = append(run.ms, m)
		}
		return run
	})
	var out []classify.Measurement
	issued := 0
	for _, run := range runs {
		for _, m := range run.ms {
			id := issued + m.TraceID
			m.TraceID = id
			for j := range m.Decisions {
				m.Decisions[j].TraceID = id
			}
			out = append(out, m)
		}
		issued += run.issued
	}
	return out, issued, nil
}

// upstreamsOf lists a probe AS's providers and providers-of-providers
// (the DNS mapper prefers off-net caches hosted nearby, and CDN mapping
// systems look beyond the immediate upstream).
func (s *Scenario) upstreamsOf(a asn.ASN) []asn.ASN {
	var out []asn.ASN
	seen := map[asn.ASN]bool{a: true}
	for _, n := range s.Topo.Neighbors(a) {
		if n.Role == topology.RelProvider && !seen[n.ASN] {
			seen[n.ASN] = true
			out = append(out, n.ASN)
		}
	}
	for _, p := range append([]asn.ASN(nil), out...) {
		for _, n := range s.Topo.Neighbors(p) {
			if n.Role == topology.RelProvider && !seen[n.ASN] {
				seen[n.ASN] = true
				out = append(out, n.ASN)
			}
		}
	}
	return out
}

// Decisions flattens every measurement's decisions.
func (s *Scenario) Decisions() []classify.Decision {
	var out []classify.Decision
	for i := range s.Measurements {
		out = append(out, s.Measurements[i].Decisions...)
	}
	return out
}

// DestinationASes counts the distinct destination ASes of the campaign
// (the paper's "218 destination ASes" effect).
func (s *Scenario) DestinationASes() int {
	seen := map[asn.ASN]bool{}
	for i := range s.Measurements {
		seen[s.Measurements[i].DstAS] = true
	}
	return len(seen)
}
