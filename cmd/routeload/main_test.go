package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// golden reads the committed bucketed emission: 51 requests over 3 s
// from 4 clients, 1 error, 10 clean sheds, three 1 s buckets whose
// p99s climb 3.9 ms → 59 ms → 90 ms.
func golden(t *testing.T) LoadReport {
	t.Helper()
	data, err := os.ReadFile("testdata/LOAD_golden.json")
	if err != nil {
		t.Fatalf("golden fixture unreadable: %v", err)
	}
	var rep LoadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("golden fixture: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("golden fixture invalid: %v", err)
	}
	return rep
}

func TestGoldenFixtureShape(t *testing.T) {
	rep := golden(t)
	if rep.Requests != 51 || rep.Errors != 1 || rep.Sheds != 10 {
		t.Fatalf("fixture drifted: requests/errors/sheds = %d/%d/%d", rep.Requests, rep.Errors, rep.Sheds)
	}
	if rep.BucketNS != 1e9 || len(rep.Buckets) != 3 {
		t.Fatalf("fixture buckets drifted: %d ns × %d", rep.BucketNS, len(rep.Buckets))
	}
}

func TestEvalGatesPass(t *testing.T) {
	g := gates{
		maxErrorRate: 2,  // 1/51 ≈ 1.96%
		maxShedRate:  20, // 10/51 ≈ 19.6%
		minSheds:     1,
		maxP99:       time.Second,
	}
	if bad := evalGates(golden(t), g); len(bad) != 0 {
		t.Errorf("healthy report failed gates: %v", bad)
	}
}

func TestEvalGatesTrip(t *testing.T) {
	cases := []struct {
		name string
		g    gates
		want string
	}{
		// The zero gates are a bare `routeload` run's: any error fails it.
		{"error rate", gates{maxErrorRate: 0, maxShedRate: 100}, "error rate"},
		{"shed rate", gates{maxErrorRate: 2, maxShedRate: 10}, "shed rate"},
		{"shed floor", gates{maxErrorRate: 2, maxShedRate: 100, minSheds: 11}, "BELOW floor 11"},
		{"p99", gates{maxErrorRate: 2, maxShedRate: 100, maxP99: 50 * time.Millisecond}, "p99 latency"},
	}
	for _, tc := range cases {
		bad := evalGates(golden(t), tc.g)
		if len(bad) != 1 {
			t.Errorf("%s: got %d violations %v, want 1", tc.name, len(bad), bad)
			continue
		}
		if !strings.Contains(bad[0], tc.want) {
			t.Errorf("%s: violation %q should mention %q", tc.name, bad[0], tc.want)
		}
	}
}

// The shed floor must not trip on reports that shed nothing when the
// gate is off — the plain load-smoke leg runs minSheds 0.
func TestEvalGatesShedFloorOff(t *testing.T) {
	rep := golden(t)
	rep.Sheds = 0
	rep.ShedRate = 0
	if bad := evalGates(rep, gates{maxErrorRate: 2, maxShedRate: 100}); len(bad) != 0 {
		t.Errorf("shed floor tripped while disabled: %v", bad)
	}
}

func TestPrintSummary(t *testing.T) {
	var sb strings.Builder
	printSummary(&sb, golden(t))
	out := sb.String()
	for _, want := range []string{
		"routelab-load/v1: 51 requests, 4 clients",
		"errors 1 (1.96%), sheds 10 (19.61%)",
		"histogram: 3 buckets of 1s",
		"whatif",
		"scenario tiny-clique",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
