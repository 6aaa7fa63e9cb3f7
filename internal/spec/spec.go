// Package spec implements routelab's declarative scenario documents:
// versioned YAML/JSON files ("routelab-spec/v1") that compile down to a
// sealed scenario.Config, so a world can be chosen — and a corpus of
// worlds maintained — without recompiling Go.
//
// A document names a profile (the role defaults: "paper", "test",
// "tiny") and overrides any subset of the profile's fields across four
// sections (topology, policy, campaign, measurement); that is the one
// way a spec derives a world. Numeric fields accept either a literal
// or a {min, max} range; ranges resolve deterministically from the
// spec seed and the field's path, so a spec with ranges still compiles
// to exactly one Config (see Num).
//
// The compilation pipeline is parse → decode → validate → resolve
// ranges → Config, documented in DESIGN.md §13 and, field by field, in
// SCENARIOS.md.
//
// # Determinism
//
// Compile is a pure function of the document bytes: no wall clock, no
// global randomness (enforced by internal/lint's walltime rule, which
// covers this package). Expanding the same spec twice yields
// byte-identical output — the property TestCorpusMatchesGoldens pins
// for every corpus entry under scenarios/.
package spec

import (
	"fmt"
	"math"
	"regexp"

	"routelab/internal/scenario"
)

// Version is the document envelope every spec must declare in its
// `spec:` field.
const Version = "routelab-spec/v1"

// ExpansionVersion is the envelope of the compiled-Config JSON emitted
// by cmd/scengen -format=json and pinned by the scenarios/golden
// corpus dumps.
const ExpansionVersion = "routelab-scengen/v1"

// Profiles are the role-default bases a spec can extend. A profile is
// a complete, valid scenario.Config; the spec's explicit fields
// override it. The zero profile is "paper".
var Profiles = []string{"paper", "test", "tiny"}

// ProfileConfig returns the named profile's complete Config.
func ProfileConfig(name string) (scenario.Config, error) {
	switch name {
	case "", "paper":
		return scenario.DefaultConfig(), nil
	case "test":
		return scenario.TestConfig(), nil
	case "tiny":
		// The smallest world the generator floors still accept: the
		// smoke-test profile routelabd boots in seconds.
		c := scenario.TestConfig()
		c.Topology.Scale = 0.05
		c.NumProbes = 60
		c.TracesTarget = 600
		c.ActiveProbes = 12
		c.PlanetLabNodes = 10
		c.MaxAlternateTargets = 20
		return c, nil
	default:
		return scenario.Config{}, &FieldError{
			Path:   "profile",
			Value:  name,
			Reason: fmt.Sprintf("unknown profile (have %v)", Profiles),
		}
	}
}

// Num is one numeric spec value: either a literal or a closed {min,
// max} range. A ranged Num resolves to a concrete value via a hash of
// the spec seed and the field's dotted path — coherent (the same spec
// always generates the same attribute) yet varied (different fields,
// and different seeds, draw independently). Changing the seed re-rolls
// every ranged field at once, which is how a single corpus entry
// describes a family of related worlds.
type Num struct {
	Literal  float64
	Min, Max float64
	Ranged   bool
}

// resolveFrac maps (seed, path) to a deterministic fraction in [0, 1).
// FNV-1a over the path folded with the seed, finished with the
// splitmix64 mixer so nearby seeds decorrelate.
func resolveFrac(seed int64, path string) float64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= 0x100000001b3
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// Float resolves the value for a float-valued field.
func (n *Num) Float(seed int64, path string) float64 {
	if !n.Ranged {
		return n.Literal
	}
	return n.Min + resolveFrac(seed, path)*(n.Max-n.Min)
}

// Int resolves the value for an integer-valued field. Ranges are
// inclusive on both ends: {min: 2, max: 4} draws uniformly from
// {2, 3, 4}.
func (n *Num) Int(seed int64, path string) int {
	if !n.Ranged {
		return int(math.Round(n.Literal))
	}
	lo, hi := int(math.Round(n.Min)), int(math.Round(n.Max))
	v := lo + int(resolveFrac(seed, path)*float64(hi-lo+1))
	if v > hi {
		v = hi
	}
	return v
}

// Spec is one decoded, validated scenario document. Build one with
// Load (files) or Parse (bytes); the zero value is not usable.
type Spec struct {
	// Version is the declared document envelope (always Version once
	// validated).
	Version string
	// Name identifies the spec ([a-z0-9._-], starting alphanumeric);
	// corpus goldens are keyed on it.
	Name        string
	Description string
	// Profile names the role-default base Config ("paper" when empty).
	Profile string
	// Source is the path the spec was loaded from ("" for Parse).
	Source string

	// values holds the explicit field overrides keyed by document path
	// ("seed", "topology.tier1s"). Fields absent here inherit the
	// profile.
	values map[string]*Num
}

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]*$`)

// Validate checks the document: envelope version, name shape, known
// profile, and every explicit field — a literal, or both ends of a
// range — against its scenario.Fields bound, so whether a document is
// valid never depends on its seed. It returns nil or one *FieldError
// per problem, joined — the same contract as scenario.Config.Validate,
// but with document paths (e.g. "policy.hybrid_link_rate") so
// cmd/scengen can point at the offending line of the document.
func (s *Spec) Validate() error {
	var errs []error
	bad := func(path string, value any, reason string) {
		errs = append(errs, &FieldError{Path: path, Value: value, Reason: reason})
	}
	if s.Version != Version {
		bad("spec", s.Version, fmt.Sprintf("unsupported spec version (want %q)", Version))
	}
	if s.Name == "" {
		bad("name", s.Name, "every spec needs a name")
	} else if !nameRE.MatchString(s.Name) {
		bad("name", s.Name, "must match [a-z0-9][a-z0-9._-]*")
	}
	if _, err := ProfileConfig(s.Profile); err != nil {
		errs = append(errs, err)
	}
	for _, f := range scenario.Fields {
		n, ok := s.values[f.Path]
		if !ok {
			continue
		}
		ends := []float64{n.Literal}
		if n.Ranged {
			rng := fmt.Sprintf("{min: %v, max: %v}", n.Min, n.Max)
			if f.Bound == scenario.Seed {
				bad(f.Path, rng, "seeds cannot be ranged; a rolled seed would make the run irreproducible")
				continue
			}
			if n.Min > n.Max {
				bad(f.Path, rng, "range needs min <= max")
				continue
			}
			ends = []float64{n.Min, n.Max}
		}
		for _, v := range ends {
			if reason := f.Bound.Check(v); reason != "" {
				bad(f.Path, v, reason)
				break
			}
		}
	}
	return joinErrors(errs)
}

// Compile resolves the spec to a concrete scenario.Config: profile
// defaults first, then every explicit field in scenario.Fields order,
// with ranged values drawn from the seed as it stands (the table lists
// the seed first). The result is validated with
// scenario.Config.Validate before it is returned, so a Config obtained
// here is always buildable.
func (s *Spec) Compile() (scenario.Config, error) {
	if err := s.Validate(); err != nil {
		return scenario.Config{}, err
	}
	cfg, err := ProfileConfig(s.Profile)
	if err != nil {
		return scenario.Config{}, err
	}
	for _, f := range scenario.Fields {
		n, ok := s.values[f.Path]
		if !ok {
			continue
		}
		v := n.Float(cfg.Seed, f.Path)
		if f.Bound.Integer() {
			v = float64(n.Int(cfg.Seed, f.Path))
		}
		f.Set(&cfg, v)
	}
	if err := cfg.Validate(); err != nil {
		return scenario.Config{}, fmt.Errorf("spec %s: compiled config invalid: %w", s.Name, err)
	}
	return cfg, nil
}
