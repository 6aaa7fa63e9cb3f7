package spec

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"routelab/internal/scenario"
)

// resolveArgs parses args the way both binaries do and resolves the
// world they describe.
func resolveArgs(t *testing.T, args ...string) (*World, *Expansion, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	w := BindWorld(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	exp, err := w.Resolve()
	return w, exp, err
}

func TestWorldResolve(t *testing.T) {
	smoke := filepath.Join(corpusDir, "smoke.yaml")
	tiny, err := ProfileConfig("tiny")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("spec is authoritative over flag defaults", func(t *testing.T) {
		_, exp, err := resolveArgs(t, "-spec", smoke)
		if err != nil {
			t.Fatal(err)
		}
		// Neither the flag defaults (seed 2015, scale 1.0, 1998 probes)
		// nor the small-scale adjustment touch the spec's world.
		if !reflect.DeepEqual(exp.Config, tiny) {
			t.Errorf("-spec smoke.yaml resolved to %+v, want the tiny profile untouched", exp.Config)
		}
		if exp.Name != "smoke" || exp.Profile != "tiny" || exp.Source == "" {
			t.Errorf("identity = %q/%q/%q, want the spec's", exp.Name, exp.Profile, exp.Source)
		}
	})

	t.Run("explicit flag beats spec", func(t *testing.T) {
		// -seed is passed at its own default value: what counts is that it
		// was passed, not that it differs.
		w, exp, err := resolveArgs(t, "-spec", smoke, "-seed", "2015", "-probes", "77", "-workers", "3")
		if err != nil {
			t.Fatal(err)
		}
		want := tiny
		want.Seed, want.NumProbes, want.RoutingWorkers = 2015, 77, 3
		if !reflect.DeepEqual(exp.Config, want) {
			t.Errorf("got %+v, want tiny with seed/probes/workers overridden", exp.Config)
		}
		if got := w.Explicit(); !reflect.DeepEqual(got, []string{"probes", "seed", "spec", "workers"}) {
			t.Errorf("Explicit() = %v", got)
		}
	})

	t.Run("overlay list is trimmed", func(t *testing.T) {
		// The splitter scengen shares: spaces around a name and an empty
		// trailing entry are not part of the list.
		paper := filepath.Join(corpusDir, "paper.yaml")
		_, exp, err := resolveArgs(t, "-spec", paper, "-overlay", " dense-monitors ,")
		if err != nil {
			t.Fatal(err)
		}
		want, err := Expand(paper, []string{"dense-monitors"})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exp.Overlays, []string{"dense-monitors"}) || !reflect.DeepEqual(exp.Config, want.Config) {
			t.Errorf("overlays %q config %+v, want dense-monitors applied: %+v", exp.Overlays, exp.Config, want.Config)
		}
	})

	t.Run("flag-built world", func(t *testing.T) {
		w, exp, err := resolveArgs(t)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exp.Config, scenario.DefaultConfig()) {
			t.Error("no flags should resolve to the paper-profile default config")
		}
		if exp.Profile != "paper" || exp.Source != "" || len(w.Explicit()) != 0 {
			t.Errorf("profile %q source %q explicit %v", exp.Profile, exp.Source, w.Explicit())
		}
	})

	t.Run("small-scale adjustment without spec", func(t *testing.T) {
		for _, tc := range []struct {
			scale          string
			probes, traces int
		}{
			{"0.2", 799, 11404}, // 1998*0.2*2, 28510*0.2*2
			{"0.01", 60, 570},   // probe floor
			{"0.5", 1998, 28510},
		} {
			_, exp, err := resolveArgs(t, "-scale", tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			if exp.Config.NumProbes != tc.probes || exp.Config.TracesTarget != tc.traces {
				t.Errorf("-scale %s: probes %d traces %d, want %d %d", tc.scale,
					exp.Config.NumProbes, exp.Config.TracesTarget, tc.probes, tc.traces)
			}
		}
	})

	t.Run("errors", func(t *testing.T) {
		for _, tc := range []struct {
			args []string
			want string
		}{
			{[]string{"-overlay", "x"}, "-overlay requires -spec"},
			{[]string{"-scale", "0.6", "-probes", "-1"}, "invalid flags:"},
			{[]string{"-spec", smoke, "-traces", "-5"}, "invalid flags:"},
			{[]string{"-spec", filepath.Join(t.TempDir(), "missing.yaml")}, "spec:"},
			{[]string{"-spec", smoke, "-overlay", "nope"}, "spec:"},
		} {
			if _, _, err := resolveArgs(t, tc.args...); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Errorf("%v: err = %v, want prefix %q", tc.args, err, tc.want)
			}
		}
	})
}
