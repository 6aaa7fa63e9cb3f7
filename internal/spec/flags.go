package spec

import (
	"flag"
	"fmt"
	"slices"

	"routelab/internal/scenario"
)

// worldFlags names every flag BindWorld defines.
var worldFlags = []string{"spec", "seed", "scale", "traces", "probes", "workers"}

// World is the world-shape flag block cmd/routelab and cmd/routelabd
// share: which world to build, from a -spec document or straight from
// the sizing flags. Create with BindWorld before fs.Parse; Resolve
// after.
type World struct {
	fs      *flag.FlagSet
	spec    *string
	seed    *int64
	scale   *float64
	traces  *int
	probes  *int
	workers *int
}

// BindWorld defines -spec/-seed/-scale/-traces/-probes/-workers on fs.
// The sizing flags default to the paper profile's values.
func BindWorld(fs *flag.FlagSet) *World {
	paper := scenario.DefaultConfig()
	return &World{
		fs:      fs,
		spec:    fs.String("spec", "", "scenario spec file (YAML/JSON; see SCENARIOS.md)"),
		seed:    fs.Int64("seed", paper.Seed, "master seed"),
		scale:   fs.Float64("scale", paper.Topology.Scale, "topology scale factor"),
		traces:  fs.Int("traces", paper.TracesTarget, "traceroute campaign size"),
		probes:  fs.Int("probes", paper.NumProbes, "selected probe count"),
		workers: fs.Int("workers", paper.RoutingWorkers, "parallel routing workers (0 = all cores, 1 = serial)"),
	}
}

// Explicit returns the world flags that were passed on the command
// line — what a caller whose world comes from elsewhere (routelabd
// -scenario-dir) must reject.
func (w *World) Explicit() []string {
	var set []string
	w.fs.Visit(func(f *flag.Flag) {
		if slices.Contains(worldFlags, f.Name) {
			set = append(set, f.Name)
		}
	})
	return set
}

// Resolve compiles the parsed flags into the one world they describe:
// the -spec document, or without one the paper profile, with the
// sizing flags passed explicitly on top ("-spec x.yaml -seed 7" is that
// world, reseeded; flag defaults never apply). Without -spec, below
// -scale 0.5, -traces and -probes left at their defaults shrink to
// match the small topology. Either way the result is validated before
// any build.
func (w *World) Resolve() (*Expansion, error) {
	exp := &Expansion{SpecVersion: ExpansionVersion, Profile: "paper", Config: scenario.DefaultConfig()}
	if *w.spec != "" {
		var err error
		if exp, err = Expand(*w.spec, nil); err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
	}
	cfg := &exp.Config
	w.fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			cfg.Seed = *w.seed
		case "scale":
			cfg.Topology.Scale = *w.scale
		case "traces":
			cfg.TracesTarget = *w.traces
		case "probes":
			cfg.NumProbes = *w.probes
		case "workers":
			cfg.RoutingWorkers = *w.workers
		}
	})
	if *w.spec == "" && cfg.Topology.Scale < 0.5 {
		// Small topologies have proportionally fewer probes available:
		// the campaign sizes left at their defaults shrink with them.
		explicit, shrink := w.Explicit(), cfg.Topology.Scale*2
		if !slices.Contains(explicit, "probes") {
			cfg.NumProbes = max(int(float64(cfg.NumProbes)*shrink), 60)
		}
		if !slices.Contains(explicit, "traces") {
			cfg.TracesTarget = int(float64(cfg.TracesTarget) * shrink)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("invalid flags: %w", err)
	}
	return exp, nil
}
