// Package scenario wires the whole reproduction together: it generates
// the ground-truth Internet, converges routing for the current and
// historical epochs, collects monitor feeds, runs relationship/sibling
// inference, deploys the Atlas platform, executes the traceroute
// campaign, and assembles the classify.Context every experiment uses.
//
// Building a full-scale scenario is expensive (two full RIB
// computations); experiments share one Scenario instance.
//
// # Concurrency
//
// Build runs its independent units of work — per-prefix convergence,
// per-probe traceroute generation, per-snapshot inference — through
// internal/parallel, bounded by Config.RoutingWorkers; the active
// campaigns (RunMagnetCampaign per mux, RunAlternatesCampaign per
// target) do the same. Results are merged in a stable order, so a build
// is byte-identical for any worker count. Every stage that consumes the
// build's master rand.Rand does so serially, BEFORE fanning out (the
// campaign derives one seed per probe up front); worker functions only
// read the sealed topology, the engine, and the immutable RIB.
//
// A built Scenario is read-only and safe for concurrent readers, with
// one exception: methods taking a *rand.Rand (Campaign,
// RunMagnetCampaign, RunAlternatesCampaign) mutate that rand and must
// not share it across goroutines. Context's model
// caches are internally synchronized (see classify.Context).
package scenario

import (
	"fmt"
	"math/rand"
	"slices"

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
	// runs, per-target alternate discovery). <= 0 selects GOMAXPROCS;
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

// TestConfig is a fast small-scale scenario for tests and examples.
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

	Snapshots []*vantage.Snapshot
	Inferred  *relgraph.Graph
	Mapper    *ipasmap.Mapper
	GeoDB     *geodb.DB
	Siblings  *siblings.Groups
	Complex   *complexrel.Dataset
	Platform  *atlas.Platform
	// Probes is the balanced Atlas selection of the campaign.
	Probes []atlas.Probe

	// LookingGlasses are the operator route servers used for the §4.3
	// validation.
	LookingGlasses *lookingglass.Directory

	Context      *classify.Context
	Measurements []classify.Measurement
	// TracesIssued counts all traceroutes, including unusable ones.
	TracesIssued int

	Testbed *peering.Testbed
}

// Phases are the stages of Build, named as their obs stage timers, in
// the order Build runs them. Logf hears a phase by its index here.
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
}

// Logf receives Build's progress lines, each with the index in Phases of
// the phase it reports on. Build calls it once as each phase begins,
// before the phase's stage timer starts, and again under the same index
// for the phase's results; nil silences it.
type Logf func(phase int, format string, args ...any)

// Build assembles the scenario. Every phase runs under an obs stage
// timer named by Phases, and the build records its headline counts
// (ASes, links, snapshots, traces, decisions) as obs counters, so a
// -metrics-json report explains where a build's wall clock went.
func Build(cfg Config, logf Logf) (*Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if logf == nil {
		logf = func(int, string, ...any) {}
	}
	defer obs.StartStage("scenario/build")()
	obs.Inc("scenario.builds")
	s := &Scenario{Cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// begin announces the phase whose stage is named stage, by its index
	// in Phases, and returns the name for the stage timer.
	phase := -1
	begin := func(stage, format string, args ...any) string {
		phase = slices.Index(Phases, stage)
		logf(phase, format, args...)
		return stage
	}

	stop := obs.StartStage(begin("scenario/topology", "generating topology (seed %d)", cfg.Seed))
	s.Topo = topology.Generate(cfg.Seed, cfg.Topology)
	s.Engine = bgp.New(s.Topo, cfg.Seed)
	stop()
	logf(phase, "  %d ASes, %d links, %d prefixes",
		s.Topo.NumASes(), s.Topo.NumLinks(), len(s.Topo.OriginatedPrefixes()))
	obs.Add("scenario.topology.ases", int64(s.Topo.NumASes()))
	obs.Add("scenario.topology.links", int64(s.Topo.NumLinks()))
	obs.Add("scenario.topology.prefixes", int64(len(s.Topo.OriginatedPrefixes())))

	stop = obs.StartStage(begin("scenario/testbed", "building PEERING testbed"))
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

	workers := parallel.Workers(cfg.RoutingWorkers)
	stop = obs.StartStage(begin("scenario/converge-historical", "converging historical epoch routing (%d workers)", workers))
	ribHist := bgp.New(topoHist, cfg.Seed).ComputeRIB(topoHist.OriginatedPrefixes(), bgp.Readers{Collectors: histPeers}, cfg.RoutingWorkers)
	stop()
	stop = obs.StartStage(begin("scenario/converge-current", "converging current epoch routing (%d workers)", workers))
	s.RIB = s.Engine.ComputeRIB(s.Topo.OriginatedPrefixes(), curReaders, cfg.RoutingWorkers)
	stop()

	s.Siblings = siblings.Infer(s.Topo.Registry, s.Topo.DNS)

	stop = obs.StartStage(begin("scenario/snapshots", "collecting %d monitor snapshots", epochs))
	infCfg := inference.DefaultConfig()
	infCfg.SameOrg = s.Siblings.SameOrg
	for epoch := range peers {
		src := ribHist
		if epoch >= cfg.HistoricEpochs {
			src = s.RIB
		}
		s.Snapshots = append(s.Snapshots, vantage.Collect(src, peers[epoch], epoch))
	}
	stop()
	obs.Add("scenario.snapshots", int64(len(s.Snapshots)))
	graphs := parallel.MapStage(begin("scenario/inference", "inferring relationships"), s.Snapshots, cfg.RoutingWorkers,
		func(_ int, snap *vantage.Snapshot) *relgraph.Graph {
			return inference.InferSnapshot(snap, infCfg)
		})
	s.Inferred = inference.Aggregate(graphs)
	logf(phase, "  inferred graph: %d edges", s.Inferred.NumEdges())
	obs.Add("scenario.inference.edges", int64(s.Inferred.NumEdges()))

	latest := s.Snapshots[len(s.Snapshots)-1]
	s.Mapper = ipasmap.FromSnapshot(latest)
	s.GeoDB = geodb.New(s.Topo, cfg.GeoDB)
	s.Complex = complexrel.FromGroundTruth(s.Topo, rng, cfg.ComplexCoverage)

	// §4.3 evidence from the CURRENT epochs only.
	originEv := make(map[asn.Prefix]map[asn.ASN]bool)
	edgeEver := make(map[topology.LinkKey]bool)
	for _, snap := range s.Snapshots[cfg.HistoricEpochs:] {
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

	stop = obs.StartStage(begin("scenario/atlas", "deploying Atlas platform"))
	s.Platform = atlas.NewPlatform(s.Topo, cfg.Seed)
	s.Probes = s.Platform.SelectBalanced(rng, cfg.NumProbes)
	stop()
	logf(phase, "  population %d probes, selected %d", s.Platform.NumProbes(), len(s.Probes))
	obs.Add("scenario.probes.selected", int64(len(s.Probes)))

	begin("scenario/campaign", "running traceroute campaign (target %d traces)", cfg.TracesTarget) // Campaign starts the stage
	if err := s.runCampaign(rng); err != nil {
		return nil, err
	}
	decisions := 0
	for i := range s.Measurements {
		decisions += len(s.Measurements[i].Decisions)
	}
	logf(phase, "  %d traces issued, %d usable, %d decisions",
		s.TracesIssued, len(s.Measurements), decisions)
	obs.Add("scenario.traces.issued", int64(s.TracesIssued))
	obs.Add("scenario.traces.usable", int64(len(s.Measurements)))
	obs.Add("scenario.decisions", int64(decisions))

	// Roughly one in five transit operators runs a public route server
	// (the paper found 28 of 149 candidate neighbors).
	stop = obs.StartStage(begin("scenario/lookingglass", "deploying looking glasses"))
	s.LookingGlasses = lookingglass.Deploy(s.Topo, s.RIB, rng, 0.2)
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

// runCampaign resolves and traces hostnames from every selected probe.
func (s *Scenario) runCampaign(rng *rand.Rand) error {
	ms, issued, err := s.Campaign(s.Probes, s.Cfg.TracesTarget, rng)
	if err != nil {
		return err
	}
	s.Measurements = ms
	s.TracesIssued = issued
	return nil
}

// Campaign runs a traceroute campaign from an arbitrary probe set (the
// ablation experiments re-run it with alternative probe selections) and
// returns the usable measurements plus the raw trace count.
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
	runs := parallel.MapStage("scenario/campaign", probes, s.Cfg.RoutingWorkers, func(i int, probe atlas.Probe) probeRun {
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
