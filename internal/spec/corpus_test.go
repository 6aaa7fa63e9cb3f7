package spec

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"routelab/internal/scenario"
)

const corpusDir = "../../scenarios"

// corpusFiles lists the spec documents under scenarios/ (not the
// goldens).
func corpusFiles(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := filepath.Ext(e.Name())
		if ext == ".yaml" || ext == ".yml" || ext == ".json" {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) < 12 {
		t.Fatalf("corpus has %d specs, want at least 12", len(files))
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
		s, err := Load(filepath.Join(corpusDir, file), nil)
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
