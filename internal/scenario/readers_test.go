// External test package, like determinism_test.go: the coverage test
// runs internal/experiments, which imports scenario.
package scenario_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/experiments"
	"routelab/internal/obs"
	"routelab/internal/scenario"
)

// buildSeed builds the TestConfig scenario of one world seed.
func buildSeed(t *testing.T, seed int64) *scenario.Scenario {
	t.Helper()
	cfg := scenario.TestConfig()
	cfg.Seed = seed
	s, err := scenario.Build(cfg, nil)
	if err != nil {
		t.Fatalf("Build(seed %d): %v", seed, err)
	}
	return s
}

// snapshotDigest hashes every entry of every monitor snapshot, in order.
func snapshotDigest(s *scenario.Scenario) string {
	h := sha256.New()
	for _, snap := range s.Snapshots {
		fmt.Fprintf(h, "epoch %d: %d entries\n", snap.Epoch, len(snap.Entries))
		for i := range snap.Entries {
			e := &snap.Entries[i]
			fmt.Fprintln(h, e.Peer, e.Prefix, e.Path)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSnapshotsMatchFullRIBBuild pins that scoping the RIBs to their
// readers changed nothing a collector sees. Build now draws the five
// epochs' peers before it converges anything instead of one epoch at a
// time in between (they were, and are, the build rng's first use), and
// collects from RIBs that keep the peers' rows only; the digests are
// those of the same seeds' snapshots at the last commit that collected
// from two keep-everything RIBs.
func TestSnapshotsMatchFullRIBBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three scenarios")
	}
	for seed, want := range map[int64]string{
		1:    "6f0f50316422701c5b567c8e3e1ff6c6744ecd10ae0cc55b1f62a98e21de0402",
		2:    "83882cbf3c737b9b576a68f37e9fd3015551a8327a8bfab01625dab311f5fb21",
		2015: "e2b16a36db80625e7c193a7e3027bdcfeba39e889f8e8072002f908d567e2ac5",
	} {
		if got := snapshotDigest(buildSeed(t, seed)); got != want {
			t.Errorf("seed %d: snapshot digest %s, want %s", seed, got, want)
		}
	}
}

// TestEveryReadIsRetained is the coverage half of the reader-scoped RIB's
// contract: the readers Build derives (the collectors' peers; every
// prefix overlapping an address DNS answers with or a testbed prefix)
// cover every read the pipeline makes. A read outside them panics, so
// running everything — the build's campaign and looking glasses, then
// `experiments all` with its ablation re-campaigns, active traceroutes
// and PSP validation — on four worlds under two experiment seeds each is
// the check; so is a longest-prefix match for every measured prefix at
// every AS, which is what the next experiment somebody writes will do.
func TestEveryReadIsRetained(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four scenarios and runs every experiment on each twice")
	}
	for world := int64(1); world <= 4; world++ {
		s := buildSeed(t, world)
		for _, seed := range []int64{world + 100, world + 200} {
			if err := experiments.Run("all", io.Discard, s, seed); err != nil {
				t.Fatalf("world %d, experiment seed %d: %v", world, seed, err)
			}
		}
		measured := map[asn.Prefix]bool{}
		for i := range s.Measurements {
			measured[s.Measurements[i].Prefix] = true
		}
		for p := range measured {
			for _, a := range s.Topo.ASNs() {
				if !s.RIB.Retains(a, p) {
					t.Fatalf("world %d: measured prefix %v is not held at %s", world, p, a)
				}
				s.RIB.Lookup(a, p.Nth(1))
			}
		}
	}
}

// TestRetainedShareOfConvergedRoutes gates, machine-independently, what
// the two RIBs of a build keep of what they converge: counted routes
// retained over counted routes converged, historical and current RIB
// together, as the ledger reads them. Measured 0.192 on this scenario
// (76,181 of 396,336; 0.105 on the ledger's scale-0.3 world, where much
// the same data-plane prefixes and collectors face four times the ASes
// and twice the prefixes); the ceiling only ever moves down.
func TestRetainedShareOfConvergedRoutes(t *testing.T) {
	routes, retained := obs.Default().Counter("bgp.rib.routes"), obs.Default().Counter("bgp.rib.retained")
	r0, k0 := routes.Value(), retained.Value()
	buildSeed(t, scenario.TestConfig().Seed)
	converged, kept := routes.Value()-r0, retained.Value()-k0
	if converged == 0 {
		t.Fatal("the build converged no route")
	}
	share := float64(kept) / float64(converged)
	t.Logf("%d of %d converged routes retained: %.3f", kept, converged, share)
	if share > 0.20 {
		t.Errorf("the build retains %.3f of its converged routes, want <= 0.20", share)
	}
}
