package spec

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"routelab/internal/scenario"
)

func mustParse(t *testing.T, doc string) *Spec {
	t.Helper()
	s, err := Parse("inline.yaml", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestProfileDefaults(t *testing.T) {
	s := mustParse(t, "spec: routelab-spec/v1\nname: bare\n")
	cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, scenario.DefaultConfig()) {
		t.Error("empty spec with implicit paper profile should compile to DefaultConfig")
	}

	s = mustParse(t, "spec: routelab-spec/v1\nname: bare\nprofile: test\n")
	cfg, err = s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, scenario.TestConfig()) {
		t.Error("profile test should compile to TestConfig")
	}
}

func TestFieldOverrides(t *testing.T) {
	s := mustParse(t, `
spec: routelab-spec/v1
name: overrides
profile: test
seed: 99
workers: 3
topology:
  tier1s: 7
  scale: 0.4
policy:
  hybrid_link_rate: 0.25
campaign:
  probes: 123
measurement:
  max_hops: 40
  trace_seed: 777
`)
	cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := scenario.TestConfig()
	want.Seed = 99
	want.RoutingWorkers = 3
	want.Topology.NumTier1 = 7
	want.Topology.Scale = 0.4
	want.Topology.HybridLinkRate = 0.25
	want.NumProbes = 123
	want.Traceroute.MaxHops = 40
	want.Traceroute.Seed = 777
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("compiled config mismatch:\n got %+v\nwant %+v", cfg, want)
	}
}

func TestRangedFieldsDeterministic(t *testing.T) {
	doc := `
spec: routelab-spec/v1
name: ranged
profile: test
seed: 42
topology:
  tier1s: {min: 5, max: 9}
policy:
  hybrid_link_rate: {min: 0.1, max: 0.3}
`
	a, err := mustParse(t, doc).Compile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mustParse(t, doc).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same document must compile identically twice")
	}
	if a.Topology.NumTier1 < 5 || a.Topology.NumTier1 > 9 {
		t.Errorf("ranged tier1s = %d, want in [5, 9]", a.Topology.NumTier1)
	}
	if a.Topology.HybridLinkRate < 0.1 || a.Topology.HybridLinkRate > 0.3 {
		t.Errorf("ranged hybrid rate = %v, want in [0.1, 0.3]", a.Topology.HybridLinkRate)
	}

	// A different seed re-rolls the draws (with overwhelming likelihood
	// at least one of the two fields moves).
	c, err := mustParse(t, strings.Replace(doc, "seed: 42", "seed: 43", 1)).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Topology.NumTier1 == a.Topology.NumTier1 && c.Topology.HybridLinkRate == a.Topology.HybridLinkRate {
		t.Error("changing the seed left every ranged field unchanged")
	}
}

func TestResolveFracBounds(t *testing.T) {
	paths := []string{"topology.tier1s", "policy.hybrid_link_rate", "campaign.probes", "x"}
	for seed := int64(-3); seed < 50; seed++ {
		for _, p := range paths {
			f := resolveFrac(seed, p)
			if f < 0 || f >= 1 {
				t.Fatalf("resolveFrac(%d, %q) = %v, want [0, 1)", seed, p, f)
			}
		}
	}
	// Int draws must cover the full inclusive range and never escape it.
	n := &Num{Min: 2, Max: 4, Ranged: true}
	seen := map[int]bool{}
	for seed := int64(0); seed < 200; seed++ {
		v := n.Int(seed, "campaign.probes")
		if v < 2 || v > 4 {
			t.Fatalf("Int draw %d escapes {2, 3, 4}", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Errorf("200 seeds drew only %v from {2, 3, 4}", seen)
	}
}

func TestInvalidFixtures(t *testing.T) {
	cases := []struct {
		file     string
		wantMsg  string // substring of the error
		wantType string // "field" or "parse"
		wantLine int    // a parse error's line
	}{
		{"bad-version.yaml", "unsupported spec version", "field", 0},
		{"bad-name.yaml", "must match [a-z0-9]", "field", 0},
		{"unknown-field.yaml", "unknown field", "field", 0},
		{"unknown-section.yaml", "unknown field", "field", 0},
		{"dotted-key.yaml", "invalid field topology.tier1s = 5: unknown field", "field", 0},
		{"bad-rate.yaml", "probability in [0, 1]", "field", 0},
		{"bad-range.yaml", "min <= max", "field", 0},
		{"seed-range.yaml", "seeds cannot be ranged", "field", 0},
		{"count-float.yaml", "must be an integer", "field", 0},
		{"negative-count.yaml", "must be >= 0", "field", 0},
		{"zero-probes.yaml", "campaign.probes = 0: must be >= 1", "field", 0},
		{"huge-seed.yaml", "seed = 9007199254740993: lies beyond ±2^53", "field", 0},
		{"bad-profile.yaml", "unknown profile", "field", 0},
		{"tab.yaml", "tab in indentation", "parse", 2},
		{"sequence.yaml", "sequences are outside the supported YAML subset", "parse", 6},
		{"trailing.json", "bytes after the document's object", "parse", 0},
	}
	for _, tc := range cases {
		path := filepath.Join("testdata", "invalid", tc.file)
		_, err := Load(path)
		if err == nil {
			t.Errorf("%s: accepted, want error", tc.file)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("%s: error %q does not contain %q", tc.file, err, tc.wantMsg)
		}
		var fe *FieldError
		var pe *ParseError
		switch tc.wantType {
		case "field":
			if !errors.As(err, &fe) {
				t.Errorf("%s: error is not a *FieldError: %v", tc.file, err)
			}
		case "parse":
			if !errors.As(err, &pe) {
				t.Errorf("%s: error is not a *ParseError: %v", tc.file, err)
			} else if pe.Line != tc.wantLine {
				t.Errorf("%s: parse error on line %d, want %d", tc.file, pe.Line, tc.wantLine)
			}
		}
	}
}

// A range is checked at both ends against the field's bound, so a
// document is valid or invalid whatever its seed draws.
func TestRangeBoundsIndependentOfSeed(t *testing.T) {
	for _, seed := range []int{1, 2015} {
		doc := fmt.Sprintf("spec: routelab-spec/v1\nname: r\nprofile: test\nseed: %d\ncampaign:\n  probes: {min: 0, max: 3}\n", seed)
		_, err := Parse("range.yaml", []byte(doc))
		fes := fieldErrors(err)
		if len(fes) != 1 || fes[0].Path != "campaign.probes" {
			t.Errorf("seed %d: error %v, want one FieldError for campaign.probes", seed, err)
		}
	}
}

// fieldErrors collects every *FieldError in err's wrap and join tree.
func fieldErrors(err error) []*FieldError {
	if fe, ok := err.(*FieldError); ok {
		return []*FieldError{fe}
	}
	var out []*FieldError
	switch u := err.(type) {
	case interface{ Unwrap() []error }:
		for _, e := range u.Unwrap() {
			out = append(out, fieldErrors(e)...)
		}
	case interface{ Unwrap() error }:
		out = fieldErrors(u.Unwrap())
	}
	return out
}

// A spec derives its world from a profile and its own fields only:
// base, overlays and apply are unknown top-level fields like any
// other, and all three are reported in one joined error.
func TestRetiredKeys(t *testing.T) {
	_, err := Load(filepath.Join("testdata", "invalid", "retired-keys.yaml"))
	got := map[string]string{}
	for _, fe := range fieldErrors(err) {
		got[fe.Path] = fe.Reason
	}
	if len(got) != 3 {
		t.Errorf("want exactly three field errors, got %v (error %v)", got, err)
	}
	for _, key := range []string{"base", "overlays", "apply"} {
		if reason, ok := got[key]; !ok || !strings.HasPrefix(reason, "unknown field") {
			t.Errorf("%s: reason %q, want an unknown-field error (error %v)", key, reason, err)
		}
	}
}

func TestAllProblemsReportedTogether(t *testing.T) {
	_, err := Parse("multi.yaml", []byte(`
spec: routelab-spec/v1
name: multi
topology:
  tier1s: -1
policy:
  hybrid_link_rate: 2.0
`))
	if err == nil {
		t.Fatal("two bad fields accepted")
	}
	for _, want := range []string{"topology.tier1s", "policy.hybrid_link_rate"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q misses %s", err, want)
		}
	}
}

func TestJSONAndYAMLEquivalent(t *testing.T) {
	yml := `
spec: routelab-spec/v1
name: twin
profile: test
seed: 7
topology:
  tier1s: 8
policy:
  hybrid_link_rate: 0.2
`
	jsn := `{
  "spec": "routelab-spec/v1",
  "name": "twin",
  "profile": "test",
  "seed": 7,
  "topology": {"tier1s": 8},
  "policy": {"hybrid_link_rate": 0.2}
}`
	// The bytes pick the parser, not the name.
	a, err := Parse("twin.json", []byte(yml))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("twin.yaml", []byte(jsn))
	if err != nil {
		t.Fatal(err)
	}
	ca, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ca, cb) {
		t.Error("YAML and JSON twins compiled differently")
	}
}

func TestConcurrentExpansion(t *testing.T) {
	// Expansion reads only shared package state (the field table, its
	// path set, the top-level keys, the profiles) and builds everything
	// else per call; expanding the same spec from many goroutines must
	// be race-free (run under -race) and byte-identical.
	path := filepath.Join("..", "..", "scenarios", "valley-heavy.yaml")
	want, err := Expand(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	results := make([][]byte, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			e, err := Expand(path, nil)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = e.MarshalCanonical()
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if string(results[i]) != string(wantBytes) {
			t.Fatalf("goroutine %d produced different bytes", i)
		}
	}
}

func TestDiff(t *testing.T) {
	a, err := Expand(filepath.Join("..", "..", "scenarios", "test.yaml"), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(filepath.Join("..", "..", "scenarios", "valley-heavy.yaml"), nil)
	if err != nil {
		t.Fatal(err)
	}
	same, err := Diff(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != 0 {
		t.Errorf("self-diff produced %v", same)
	}
	lines, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// valley-heavy is the test profile plus its five policy fields, and
	// nothing else.
	want := []string{
		"Topology.CacheSelectiveRate: 0.55 -> 0.9",
		"Topology.ContentSelectiveRate: 0.7 -> 0.95",
		"Topology.HybridLinkRate: 0.05 -> 0.5",
		"Topology.PartialTransitRate: 0.02 -> 0.35",
		"Topology.SelectiveExportRate: 0.15 -> 0.6",
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("test vs valley-heavy:\n got %q\nwant %q", lines, want)
	}
}
