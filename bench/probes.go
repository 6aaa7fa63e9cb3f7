package main

import (
	"math/rand"
	"time"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/classify"
	"routelab/internal/gaorexford"
	"routelab/internal/scenario"
	"routelab/internal/topology"
	"routelab/internal/whatif"
)

var probeSink int

// timeEachUS times fn once per item and returns the samples in
// microseconds, ascending.
func timeEachUS(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0)) / 1e3
	}
	return sorted(out)
}

// pick returns a seeded sample of at most n of xs, in shuffled order.
// xs is not modified.
func pick[T any](rng *rand.Rand, xs []T, n int) []T {
	out := make([]T, 0, min(n, len(xs)))
	for _, i := range rng.Perm(len(xs))[:cap(out)] {
		out = append(out, xs[i])
	}
	return out
}

// probeLayers times the kernels under the pipeline one call at a time,
// on one goroutine, against the world a traced pass built. The samples
// are drawn from o.seed, so one seed probes the same items every time.
func probeLayers(s *scenario.Scenario, o options, v values) {
	rng := rand.New(rand.NewSource(o.seed))
	scale := func(n int) int {
		if o.quick {
			return max(n/20, 10)
		}
		return n
	}

	// bgp: full convergence of one prefix, the unit of ComputeFullRIB.
	// 1,000 samples leave ten beyond the 99th percentile.
	prefixes := pick(rng, s.Topo.OriginatedPrefixes(), scale(1000))
	us := timeEachUS(len(prefixes), func(i int) { probeSink += len(s.Engine.ComputePrefix(prefixes[i])) })
	v["bgp.prefix_p50_us"] = median(us)
	v["bgp.prefix_p99_us"] = percentile(us, 99)

	// bgp: fork the converged anycast base, poison one AS, reconverge —
	// the step inside every alternates round and what-if poison.
	tb := s.Testbed
	base := tb.AnycastBase(tb.Prefixes[0])
	var targets []asn.ASN
	for _, a := range s.Topo.ASNs() {
		if a != tb.Origin {
			targets = append(targets, a)
		}
	}
	targets = pick(rng, targets, scale(200))
	us = timeEachUS(len(targets), func(i int) {
		c := base.Fork()
		c.Announce(bgp.Announcement{Origin: tb.Origin, Poisoned: []asn.ASN{targets[i]}})
		c.Converge()
	})
	v["bgp.fork_reconverge_us"] = median(us)

	// classify: one decision under one refinement, model caches warm
	// (the first sweep fills them).
	ds := pick(rng, s.Decisions(), scale(2000))
	sweep := func() {
		for _, d := range ds {
			for _, ref := range classify.Refinements {
				probeSink += int(s.Context.Classify(d, ref))
			}
		}
	}
	sweep()
	t0 := time.Now()
	sweep()
	if n := len(ds) * len(classify.Refinements); n > 0 {
		v["classify.ns_per_decision"] = float64(time.Since(t0)) / float64(n)
	}

	// gaorexford: the model's routing tree toward one destination on the
	// inferred graph — what a classify cache miss pays.
	var dsts []asn.ASN
	seen := map[asn.ASN]bool{}
	for i := range s.Measurements {
		if d := s.Measurements[i].DstAS; !seen[d] {
			seen[d] = true
			dsts = append(dsts, d)
		}
	}
	dsts = pick(rng, dsts, scale(200))
	us = timeEachUS(len(dsts), func(i int) {
		if gaorexford.Compute(s.Inferred, dsts[i]).Reachable(dsts[i]) {
			probeSink++
		}
	})
	v["gaorexford.compute_us"] = median(us)

	// whatif: compile + evaluate one delta of each kind on the frozen
	// base, over a seeded choice of ASes and links.
	deltas := probeDeltas(s.Topo, tb.Origin, rng, scale(40))
	us = timeEachUS(len(deltas), func(i int) {
		cd, err := whatif.Compile(deltas[i], s.Topo, tb.Origin)
		if err != nil {
			panic("bench: whatif probe delta does not compile: " + err.Error())
		}
		d, err := whatif.Eval(base, cd)
		if err != nil {
			panic("bench: whatif probe delta does not evaluate: " + err.Error())
		}
		probeSink += d.Affected
	})
	v["whatif.eval_us"] = median(us)
}

// probeDeltas draws perKind deltas of each kind that needs no new
// link: poison, prepend, link_failure, local_pref, and one withdraw.
func probeDeltas(topo *topology.Topology, origin asn.ASN, rng *rand.Rand, perKind int) []whatif.Delta {
	links := adjacencies(topo) // in AS order: topo.Links walks a map
	ases := topo.ASNs()
	out := []whatif.Delta{{Kind: whatif.Withdraw}}
	for i := 0; i < perKind; i++ {
		a := ases[rng.Intn(len(ases))]
		for a == origin {
			a = ases[rng.Intn(len(ases))]
		}
		l := links[rng.Intn(len(links))]
		out = append(out,
			whatif.Delta{Kind: whatif.Poison, Poisoned: []string{a.String()}},
			whatif.Delta{Kind: whatif.Prepend, Prepend: 1 + i%8},
			whatif.Delta{Kind: whatif.LinkFailure, A: l[0].String(), B: l[1].String()},
			whatif.Delta{Kind: whatif.LocalPref, At: l[0].String(), From: l[1].String(), Pref: 50 + 100*(i%4)},
		)
	}
	return out
}
