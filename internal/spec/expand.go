package spec

import (
	"bytes"
	"encoding/json"
	"fmt"

	"routelab/internal/scenario"
)

// Expansion is the versioned envelope cmd/scengen emits for a compiled
// spec ("routelab-scengen/v1") and the shape pinned byte-for-byte by
// the scenarios/golden corpus dumps: which document, and the exact
// sealed Config it compiles to.
type Expansion struct {
	SpecVersion string          `json:"spec"`
	Name        string          `json:"name"`
	Description string          `json:"description,omitempty"`
	Source      string          `json:"source,omitempty"`
	Profile     string          `json:"profile"`
	Config      scenario.Config `json:"config"`
}

// Expand loads a spec file and compiles it. This is the one-call path
// cmd/scengen, cmd/routelab, and cmd/routelabd share. The second
// parameter is unused and every caller passes nil: it remains only
// because the benchmark harness under bench/ calls Expand(path, nil),
// and goes with the harness's next revision.
func Expand(path string, _ []string) (*Expansion, error) {
	s, err := Load(path)
	if err != nil {
		return nil, err
	}
	return expand(s)
}

// Expansion compiles an already-loaded spec into its versioned
// envelope — the path routelabd's POST /v1/scenarios admission uses,
// where the document arrives as request bytes (via Parse) rather than
// a corpus file.
func (s *Spec) Expansion() (*Expansion, error) { return expand(s) }

func expand(s *Spec) (*Expansion, error) {
	cfg, err := s.Compile()
	if err != nil {
		return nil, err
	}
	profile := s.Profile
	if profile == "" {
		profile = "paper"
	}
	return &Expansion{
		SpecVersion: ExpansionVersion,
		Name:        s.Name,
		Description: s.Description,
		Source:      s.Source,
		Profile:     profile,
		Config:      cfg,
	}, nil
}

// MarshalCanonical renders the envelope as the canonical indented JSON
// the goldens commit: fixed field order (struct order), two-space
// indent, trailing newline. Byte-identical across runs and platforms.
func (e *Expansion) MarshalCanonical() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Flatten renders the expansion's Config as sorted "path = value"
// lines ("Topology.NumTier1 = 12"), one per scenario.Fields row — the
// text output of scengen -expand and the vocabulary of Diff.
func (e *Expansion) Flatten() ([]string, error) {
	flat, err := flatten(e.Config)
	if err != nil {
		return nil, err
	}
	keys := sortedKeys(flat)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k + " = " + flat[k]
	}
	return out, nil
}

// flatten maps every field of cfg's table to its value, keyed by Go
// path and rendered as encoding/json renders a float64.
func flatten(cfg scenario.Config) (map[string]string, error) {
	flat := make(map[string]string, len(scenario.Fields))
	for i := range scenario.Fields {
		f := &scenario.Fields[i]
		v, err := json.Marshal(f.Get(&cfg))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.GoPath, err)
		}
		flat[f.GoPath] = string(v)
	}
	return flat, nil
}

// Diff compares two expansions' Configs field by field, returning one
// "path: a -> b" line per differing field in path order (empty =
// identical configs; names and provenance are not compared).
func Diff(a, b *Expansion) ([]string, error) {
	ma, err := flatten(a.Config)
	if err != nil {
		return nil, err
	}
	mb, err := flatten(b.Config)
	if err != nil {
		return nil, err
	}
	// Both sides flatten the same struct, so they share one key set.
	var out []string
	for _, k := range sortedKeys(ma) {
		if ma[k] != mb[k] {
			out = append(out, fmt.Sprintf("%s: %s -> %s", k, ma[k], mb[k]))
		}
	}
	return out, nil
}
