// External test package: the byte-identity half of the test renders via
// internal/experiments, which itself imports scenario.
package scenario_test

import (
	"bytes"
	"reflect"
	"testing"

	"routelab/internal/experiments"
	"routelab/internal/scenario"
)

// TestBuildDeterministicAcrossWorkerCounts is the concurrency model's
// load-bearing guarantee (DESIGN.md "Concurrency model"): the same
// configuration built with the serial reference path (RoutingWorkers=1)
// and with a wide worker pool must produce identical results — the same
// routing decisions, the same RIB, and byte-identical rendered output.
func TestBuildDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the scenario twice")
	}
	build := func(workers int) *scenario.Scenario {
		cfg := scenario.TestConfig()
		cfg.RoutingWorkers = workers
		s, err := scenario.Build(cfg, nil)
		if err != nil {
			t.Fatalf("Build(workers=%d): %v", workers, err)
		}
		return s
	}
	serial := build(1)
	wide := build(8)

	if got, want := len(wide.Measurements), len(serial.Measurements); got != want {
		t.Fatalf("measurement count: workers=8 got %d, workers=1 got %d", got, want)
	}
	if !reflect.DeepEqual(serial.Decisions(), wide.Decisions()) {
		t.Error("decisions differ between workers=1 and workers=8")
	}

	sp, wp := serial.RIB.Prefixes(), wide.RIB.Prefixes()
	if !reflect.DeepEqual(sp, wp) {
		t.Fatalf("RIB prefix sets differ: %d vs %d prefixes", len(sp), len(wp))
	}
	// The two builds retain the same (AS, prefix) set, and agree on every
	// route in it; a read outside it would panic.
	retained := 0
	for _, p := range sp {
		for _, a := range serial.Topo.ASNs() {
			keeps := serial.RIB.Retains(a, p)
			if keeps != wide.RIB.Retains(a, p) {
				t.Fatalf("only one build retains %s's route for %v (workers=1: %v)", a, p, keeps)
			}
			if !keeps {
				continue
			}
			retained++
			sr, sok := serial.RIB.Route(a, p)
			wr, wok := wide.RIB.Route(a, p)
			if sok != wok || !reflect.DeepEqual(sr, wr) {
				t.Fatalf("RIB route of %s for %v differs between worker counts: %v (%v) vs %v (%v)", a, p, sr, sok, wr, wok)
			}
		}
	}
	if retained == 0 {
		t.Fatal("the builds retain no route")
	}

	// The end-to-end guarantee: rendered experiment output is
	// byte-identical (Figure 1 itself classifies in parallel, so this
	// also exercises the classify cache under concurrency).
	for _, name := range []string{"table1", "figure1"} {
		var a, b bytes.Buffer
		if err := experiments.Run(name, &a, serial, serial.Cfg.Seed); err != nil {
			t.Fatal(err)
		}
		if err := experiments.Run(name, &b, wide, wide.Cfg.Seed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s output differs between workers=1 and workers=8", name)
		}
	}
}
