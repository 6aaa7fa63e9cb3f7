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
func BindWorld(fs *flag.FlagSet) *World {
	return &World{
		fs:      fs,
		spec:    fs.String("spec", "", "scenario spec file (YAML/JSON; see SCENARIOS.md)"),
		seed:    fs.Int64("seed", 2015, "master seed"),
		scale:   fs.Float64("scale", 1.0, "topology scale factor"),
		traces:  fs.Int("traces", 28510, "traceroute campaign size"),
		probes:  fs.Int("probes", 1998, "selected probe count"),
		workers: fs.Int("workers", 0, "parallel routing workers (0 = all cores, 1 = serial)"),
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

// Resolve compiles the parsed flags into the one world they describe.
// With -spec the document is authoritative — its campaign sizing is
// taken at face value — and only the sizing flags passed explicitly
// override it ("-spec x.yaml -seed 7" is that world, reseeded; flag
// defaults do not apply). Without -spec the world is the paper profile
// sized by the flags; below -scale 0.5, -traces and -probes left at
// their defaults shrink to match the small topology. Either way the
// result is validated before any build.
func (w *World) Resolve() (*Expansion, error) {
	var exp *Expansion
	if *w.spec != "" {
		var err error
		exp, err = Expand(*w.spec, nil)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
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
	} else {
		cfg := scenario.DefaultConfig()
		cfg.Seed = *w.seed
		cfg.Topology.Scale = *w.scale
		cfg.TracesTarget = *w.traces
		cfg.NumProbes = *w.probes
		cfg.RoutingWorkers = *w.workers
		if *w.scale < 0.5 {
			// Small topologies have proportionally fewer probes available:
			// the campaign sizes left at their defaults shrink with them.
			explicit, shrink := w.Explicit(), *w.scale*2
			if !slices.Contains(explicit, "probes") {
				cfg.NumProbes = max(int(float64(cfg.NumProbes)*shrink), 60)
			}
			if !slices.Contains(explicit, "traces") {
				cfg.TracesTarget = int(float64(cfg.TracesTarget) * shrink)
			}
		}
		exp = &Expansion{SpecVersion: ExpansionVersion, Profile: "paper", Config: cfg}
	}
	if err := exp.Config.Validate(); err != nil {
		return nil, fmt.Errorf("invalid flags: %w", err)
	}
	return exp, nil
}
