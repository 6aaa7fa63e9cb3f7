package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"routelab/internal/scenario"
)

const corpusDir = "../../scenarios"

// corpusFiles lists the spec documents under scenarios/ (not the
// goldens) by file name.
func corpusFiles(t *testing.T) []string {
	t.Helper()
	paths, err := Files(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 12 {
		t.Fatalf("corpus has %d specs, want at least 12", len(paths))
	}
	files := make([]string, len(paths))
	for i, p := range paths {
		files[i] = filepath.Base(p)
	}
	return files
}

// TestCorpusExpandsDeterministically is the determinism contract for
// the corpus: every spec loads, compiles, and produces byte-identical
// canonical output when expanded twice.
func TestCorpusExpandsDeterministically(t *testing.T) {
	for _, file := range corpusFiles(t) {
		path := filepath.Join(corpusDir, file)
		first, err := Expand(path, nil)
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		a, err := first.MarshalCanonical()
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		second, err := Expand(path, nil)
		if err != nil {
			t.Errorf("%s: re-expand: %v", file, err)
			continue
		}
		b, err := second.MarshalCanonical()
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		if string(a) != string(b) {
			t.Errorf("%s: two expansions differ", file)
		}
	}
}

// TestCorpusMatchesGoldens is the corpus check: every spec under
// scenarios/ expands to exactly the canonical routelab-scengen/v1
// envelope committed as scenarios/golden/<name>.json, and every golden
// has a spec, so the corpus and the spec compiler cannot drift apart
// silently. After an INTENTIONAL change regenerate with
// WRITE_GOLDEN=1 go test ./internal/spec -run TestCorpusMatchesGoldens
// and read `git diff scenarios/golden` for what moved.
func TestCorpusMatchesGoldens(t *testing.T) {
	update := os.Getenv("WRITE_GOLDEN") != ""
	goldenDir := filepath.Join(corpusDir, "golden")
	names := make(map[string]bool)
	for _, file := range corpusFiles(t) {
		e, err := Expand(filepath.Join(corpusDir, file), nil)
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		names[e.Name] = true
		// Normalized provenance keeps the golden bytes independent of
		// the directory the expansion ran from.
		e.Source = "scenarios/" + file
		got, err := e.MarshalCanonical()
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		goldenPath := filepath.Join(goldenDir, e.Name+".json")
		if update {
			if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Errorf("%s: missing golden (regenerate with WRITE_GOLDEN=1): %v", file, err)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("%s: expansion differs from %s (regenerate with WRITE_GOLDEN=1)", file, goldenPath)
		}
	}
	// A golden with no spec is rot in the other direction.
	goldens, err := filepath.Glob(filepath.Join(goldenDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		if !names[strings.TrimSuffix(filepath.Base(g), ".json")] {
			t.Errorf("%s: golden has no spec under scenarios/ (delete it or add the spec)", g)
		}
	}
}

// TestCorpusNamesUnique: goldens are keyed by spec name, so the corpus
// cannot contain two documents with the same name.
func TestCorpusNamesUnique(t *testing.T) {
	seen := map[string]string{}
	for _, file := range corpusFiles(t) {
		s, err := Load(filepath.Join(corpusDir, file))
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		if prev, dup := seen[s.Name]; dup {
			t.Errorf("name %q claimed by both %s and %s", s.Name, prev, file)
		}
		seen[s.Name] = file
	}
}

// TestPaperSpecMatchesDefaultConfig pins the acceptance criterion: the
// canonical corpus entry compiles to exactly the hand-built
// DefaultConfig, so a scenario built from scenarios/paper.yaml leaves
// the 14 experiment goldens byte-identical to the default run.
func TestPaperSpecMatchesDefaultConfig(t *testing.T) {
	e, err := Expand(filepath.Join(corpusDir, "paper.yaml"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := scenario.DefaultConfig()
	if !reflect.DeepEqual(e.Config, want) {
		lines, _ := Diff(e, &Expansion{Config: want})
		t.Fatalf("paper.yaml no longer compiles to scenario.DefaultConfig():\n  %s",
			strings.Join(lines, "\n  "))
	}
}

// TestTestSpecMatchesTestConfig: same pin for the test-profile twin,
// which the spec-layer tests and docs lean on.
func TestTestSpecMatchesTestConfig(t *testing.T) {
	e, err := Expand(filepath.Join(corpusDir, "test.yaml"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e.Config, scenario.TestConfig()) {
		t.Fatal("test.yaml no longer compiles to scenario.TestConfig()")
	}
}

// flattenJSON is the reference Flatten is held to: every leaf of the
// Config's JSON form, keyed by dotted path, read back through a
// json.Decoder that keeps each number's text.
func flattenJSON(t *testing.T, cfg scenario.Config) []string {
	t.Helper()
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	flat := map[string]string{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				if prefix != "" {
					k = prefix + "." + k
				}
				walk(k, e)
			}
		case json.Number:
			flat[prefix] = x.String()
		case string:
			flat[prefix] = fmt.Sprintf("%q", x)
		default:
			flat[prefix] = fmt.Sprint(x)
		}
	}
	walk("", v)
	var out []string
	for _, k := range sortedKeys(flat) {
		out = append(out, k+" = "+flat[k])
	}
	return out
}

// Flatten reads the field table, not the Config's JSON form: on every
// committed spec, the scenario corpus and the benchmark's worlds, the
// two render the same lines.
func TestFlattenMatchesJSONRoundTrip(t *testing.T) {
	var paths []string
	for _, dir := range []string{corpusDir, "../../bench/worlds", "../../bench/worlds/fleet", "../../bench/worlds/quickfleet"} {
		files, err := Files(dir)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, files...)
	}
	if len(paths) < 22 {
		t.Fatalf("%d committed specs, want at least 22", len(paths))
	}
	for _, path := range paths {
		exp, err := Expand(path, nil)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		got, err := exp.Flatten()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if want := flattenJSON(t, exp.Config); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Flatten\n got %q\nwant %q", path, got, want)
		}
	}
}
