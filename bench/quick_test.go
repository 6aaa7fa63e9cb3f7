package main

import (
	"bytes"
	"fmt"
	"testing"
)

// TestQuickRunsEveryWorkload takes every workload through its untraced
// and its traced run on tiny worlds. It checks outputs, not speeds.
func TestQuickRunsEveryWorkload(t *testing.T) {
	for _, name := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				r, err := measure(options{workload: name, seed: goldenSeed, seconds: 1, quick: true, traced: traced})
				if err != nil {
					t.Fatal(err)
				}
				var report bytes.Buffer
				r.print(&report)
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, report.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Fatalf("%d metrics, ledger has %d", len(r.Metrics), len(defs))
				}
				for i, m := range r.Metrics {
					if m.Name != defs[i].Name || m.Unit != defs[i].Unit {
						t.Errorf("metric %d is %s %s, ledger says %s %s", i, m.Name, m.Unit, defs[i].Name, defs[i].Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want above 0", m.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestLedgerMatchesBenchmarkJSON keeps the names the benchmark prints
// and the names BENCHMARK.json promises the same.
func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	bj, err := readBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %s, benchmark has %s", i, w.Name, workloads[i])
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, ledger has %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end %d is %s %s, ledger has %s %s", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > bj.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v; want in (0, 0.25] and no larger than setup_s's", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, ledger has %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer %d is %s %s, ledger has %s %s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

func TestCompareSets(t *testing.T) {
	bj := &benchmarkJSON{EndToEnd: []declared{{Name: "op_p50_ms", Unit: "ms", Bound: 0.10}}}
	set := func(ms float64, events int64) map[string]*Result {
		out := map[string]*Result{}
		for _, w := range workloads {
			out[w] = &Result{Metrics: []Metric{{"op_p50_ms", ms, "ms"}}, Counts: map[string]int64{"bgp.converge.events": events}}
		}
		return out
	}
	for _, tc := range []struct {
		name string
		sets []map[string]*Result
		want int
	}{
		{"within the bound", []map[string]*Result{set(100, 5), set(108, 5)}, 0},
		{"beyond the bound", []map[string]*Result{set(100, 5), set(112, 5)}, len(workloads)},
		{"a count that moved", []map[string]*Result{set(100, 5), set(100, 6)}, len(workloads)},
		{"the worst pair of three", []map[string]*Result{set(100, 5), set(105, 5), set(111, 5)}, len(workloads)},
	} {
		var report bytes.Buffer
		if got := compareSets(&report, bj, tc.sets); got != tc.want {
			t.Errorf("%s: %d disagreements, want %d\n%s", tc.name, got, tc.want, report.String())
		}
	}
}
