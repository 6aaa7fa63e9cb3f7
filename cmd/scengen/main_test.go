package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// argsEnv carries scengen's arguments, JSON-encoded, to a re-executed
// test binary: TestMain then runs main itself, so the tests drive the
// real flag parsing, output and exit codes.
const argsEnv = "SCENGEN_TEST_ARGS"

// root is the repository root: the re-executed scengen runs there, so
// the paths it prints are the ones the corpus goldens record.
const root = "../.."

const corpus = "scenarios"

func TestMain(m *testing.M) {
	if v, ok := os.LookupEnv(argsEnv); ok {
		var args []string
		if err := json.Unmarshal([]byte(v), &args); err != nil {
			fmt.Fprintln(os.Stderr, "scengen test:", err)
			os.Exit(3)
		}
		os.Args = append([]string{"scengen"}, args...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run re-executes the test binary as scengen and returns its stdout,
// its stderr and its exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	enc, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), argsEnv+"="+string(enc))
	cmd.Dir = root
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

func lines(s string) []string { return strings.Split(strings.TrimSuffix(s, "\n"), "\n") }

// specs lists the corpus's documents with one extension, as paths
// from the repository root.
func specs(t *testing.T, ext string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, corpus, "*"+ext))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		if files[i], err = filepath.Rel(root, f); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// list prints one valid line per spec document of the corpus.
func TestList(t *testing.T) {
	stdout, stderr, code := run(t, "list", corpus)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	got, want := lines(stdout), len(specs(t, ".yaml"))+len(specs(t, ".json"))
	if len(got) != want {
		t.Errorf("%d lines, want one per spec (%d):\n%s", len(got), want, stdout)
	}
	for _, l := range got {
		if strings.Contains(l, "INVALID") {
			t.Errorf("corpus spec listed as invalid: %s", l)
		}
	}
}

// -format=json expand prints the envelope the corpus golden pins.
func TestExpandJSONMatchesGolden(t *testing.T) {
	stdout, stderr, code := run(t, "-format=json", "expand", filepath.Join(corpus, "smoke.yaml"))
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	want, err := os.ReadFile(filepath.Join(root, corpus, "golden", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("expand -format=json differs from scenarios/golden/smoke.json:\n%s", stdout)
	}
}

// Every corpus spec validates.
func TestValidateCorpus(t *testing.T) {
	files := specs(t, ".yaml")
	stdout, stderr, code := run(t, append([]string{"validate"}, files...)...)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	var want strings.Builder
	for _, f := range files {
		want.WriteString(f + ": ok\n")
	}
	if stdout != want.String() {
		t.Errorf("validate printed:\n%s\nwant:\n%s", stdout, want.String())
	}
}

// A spec with one bad field is a finding, not an error: exit 1, and
// the report names the field's schema path.
func TestBadField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broken.yaml")
	doc := "spec: routelab-spec/v1\nname: broken\nprofile: tiny\ntopology:\n  tier1s: -3\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"validate", path}, {"expand", path}} {
		stdout, stderr, code := run(t, args...)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1\n%s%s", args[0], code, stdout, stderr)
		}
		if !strings.Contains(stdout+stderr, "topology.tier1s") {
			t.Errorf("%s: output does not name topology.tier1s:\n%s%s", args[0], stdout, stderr)
		}
	}
}

// A bound the compiled Config would break is a finding like any other
// bad field: validate reports it by its document path, goes on to the
// next file, and exits 1.
func TestValidateReportsEveryFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-probes.yaml")
	doc := "spec: routelab-spec/v1\nname: no-probes\nprofile: tiny\ncampaign:\n  probes: 0\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	valid := filepath.Join(corpus, "smoke.yaml")
	stdout, stderr, code := run(t, "validate", path, valid)
	if code != 1 {
		t.Errorf("exit %d, want 1\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, path+": INVALID") || !strings.Contains(stdout, "campaign.probes") ||
		!strings.HasSuffix(stdout, valid+": ok\n") {
		t.Errorf("validate printed:\n%s%s\nwant %s INVALID naming campaign.probes, then %s ok", stdout, stderr, path, valid)
	}
}

// diff prints one "Field: a -> b" line per differing field and exits
// 1; a spec against itself differs nowhere and exits 0 silently. An
// invalid document is a finding too (exit 1), not an I/O error.
func TestDiff(t *testing.T) {
	a, b := filepath.Join(corpus, "test.yaml"), filepath.Join(corpus, "valley-heavy.yaml")
	stdout, stderr, code := run(t, "diff", a, b)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, stdout, stderr)
	}
	// valley-heavy is the test profile plus its five policy fields, and
	// nothing else.
	want := "Topology.CacheSelectiveRate: 0.55 -> 0.9\n" +
		"Topology.ContentSelectiveRate: 0.7 -> 0.95\n" +
		"Topology.HybridLinkRate: 0.05 -> 0.5\n" +
		"Topology.PartialTransitRate: 0.02 -> 0.35\n" +
		"Topology.SelectiveExportRate: 0.15 -> 0.6\n"
	if stdout != want {
		t.Errorf("diff printed:\n%s\nwant:\n%s", stdout, want)
	}

	stdout, stderr, code = run(t, "diff", a, a)
	if code != 0 || stdout != "" || stderr != "" {
		t.Errorf("diff of a spec against itself: exit %d, stdout %q, stderr %q; want 0 and no output", code, stdout, stderr)
	}

	invalid := filepath.Join("internal", "spec", "testdata", "invalid", "bad-rate.yaml")
	for _, args := range [][]string{{"diff", a, invalid}, {"diff", invalid, a}} {
		stdout, stderr, code = run(t, args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, "probability in [0, 1]") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 1 and the finding on stderr", args, code, stdout, stderr)
		}
	}
}

// An unknown command or output format is a usage error: exit 2.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"render", filepath.Join(corpus, "smoke.yaml")},
		{"-format=xml", "expand", filepath.Join(corpus, "smoke.yaml")},
		{},
	} {
		if stdout, stderr, code := run(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s%s", args, code, stdout, stderr)
		}
	}
}
