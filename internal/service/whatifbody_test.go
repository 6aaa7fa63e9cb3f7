package service

import (
	"bytes"
	"context"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/scenario"
	"routelab/internal/whatif"
)

// marshalWhatIf is how a what-if body was served before whatifBody
// rendered it: every delta evaluated to a whatif.Diff, the batch
// marshaled as WhatIfData. It is the reference whatifBody's bytes are
// held to.
func marshalWhatIf(s *scenario.Scenario, prefix asn.Prefix, cds []*whatif.Compiled) ([]byte, error) {
	base := s.Testbed.AnycastBase(prefix)
	data := WhatIfData{Prefix: prefix.String(), Origin: s.Testbed.Origin.String(), Deltas: len(cds)}
	for _, cd := range cds {
		d, err := whatif.Eval(base, cd)
		if err != nil {
			return nil, err
		}
		data.Results = append(data.Results, d)
	}
	return marshalEnvelope("whatif", data)
}

// whatifBatches lists the what-if batches TestWhatIfBodyIsMarshal
// serves on s: per AS a poison, a poison of it and a neighbor together
// with a prepend, and a local_pref override at it; then every mux link
// failing and a withdraw.
func whatifBatches(s *scenario.Scenario) [][]whatif.Delta {
	origin := s.Testbed.Origin
	var out [][]whatif.Delta
	for i, a := range s.Topo.ASNs() {
		var n asn.ASN // a neighbor of a, if it has one
		if nbrs := s.Topo.Neighbors(a); len(nbrs) > 0 {
			n = nbrs[i%len(nbrs)].ASN
			out = append(out, []whatif.Delta{{Kind: whatif.LocalPref, At: a.String(), From: n.String(), Pref: 50 + 100*(i%4)}})
		}
		if a == origin {
			continue
		}
		out = append(out, []whatif.Delta{{Kind: whatif.Poison, Poisoned: []string{a.String()}}})
		pair := []string{a.String()}
		if !n.IsZero() && n != origin {
			pair = append(pair, n.String())
		}
		out = append(out, []whatif.Delta{
			{Kind: whatif.Poison, Poisoned: pair},
			{Kind: whatif.Prepend, Prepend: 1 + i%8},
		})
	}
	for _, m := range s.Testbed.Muxes {
		out = append(out, []whatif.Delta{{Kind: whatif.LinkFailure, A: origin.String(), B: m.String()}})
	}
	return append(out, []whatif.Delta{{Kind: whatif.Withdraw}})
}

// TestWhatIfBodyIsMarshal: a served what-if body, rendered straight
// from the changed routes, equals byte for byte what marshaling
// WhatIfData of whatif.Eval's diffs gives, for every AS of the
// TestConfig world at seeds 2015 and 7 and every delta kind that
// moves routes: a poison, a poison pair batched with a prepend, a
// local_pref override, each mux link failing, and a withdraw.
func TestWhatIfBodyIsMarshal(t *testing.T) {
	if testing.Short() {
		t.Skip("two worlds' worth of what-if evaluations")
	}
	for _, seed := range []int64{2015, 7} {
		s := testScenario(t)
		if seed != s.Cfg.Seed {
			cfg := scenario.TestConfig()
			cfg.Seed = seed
			var err error
			if s, err = scenario.Build(cfg, nil); err != nil {
				t.Fatal(err)
			}
		}
		srv := &Server{s: s}
		prefix := s.Testbed.Prefixes[0]
		batches, heavy := whatifBatches(s), 0
		for _, ds := range batches {
			cds, err := whatif.CompileAll(ds, s.Topo, s.Testbed.Origin)
			if err != nil {
				t.Fatalf("seed %d: %+v: %v", seed, ds, err)
			}
			want, err := marshalWhatIf(s, prefix, cds)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, whatif.CanonicalKey(cds), err)
			}
			got, err := srv.whatifBody(context.Background(), prefix, cds)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, whatif.CanonicalKey(cds), err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: %s: served body differs from the marshaled one\n got %s\nwant %s",
					seed, whatif.CanonicalKey(cds), got, want)
			}
			if len(got) > 100_000 {
				heavy++
			}
		}
		t.Logf("seed %d: %d batches byte-identical, %d of them over 100 KB", seed, len(batches), heavy)
		if heavy == 0 {
			t.Errorf("seed %d: no batch rendered a heavy body", seed)
		}
	}
}
