package bgp

// Event-identity golden. The fork-vs-replay differentials prove that two
// runs of ONE kernel agree; nothing but the ledger's exact-repeat counts
// (one world, outside go test) would notice a kernel change that
// reorders the event queue or restamps the clock and still converges to
// a plausible state. This test pins, for two generated worlds and the
// seven ways a computation is driven, the cumulative event and change
// counters and a SHA-256 over everything the public accessors show:
// every AS's best route with all public fields (Age included, so the
// clock is pinned), its decision step, and the order of its
// alternatives. It reads only exported API, so an engine rewrite must
// pass it unedited.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/topology"
)

// goldenWorld is one generated world with the handles the scenarios
// need: the PEERING origin and its first prefix, mux-0 (the AS the
// poisoned announcements name), and the mux that carries the anycast.
type goldenWorld struct {
	topo        *topology.Topology
	e           *Engine
	origin, mux asn.ASN
	prefix      asn.Prefix
}

func newGoldenWorld(seed int64) *goldenWorld {
	topo := topology.Generate(seed, topology.TestConfig())
	w := &goldenWorld{topo: topo, e: New(topo, seed), origin: topo.Names["peering"], mux: topo.Names["mux-0"]}
	w.prefix = topo.AS(w.origin).Prefixes[0]
	return w
}

// converge announces the plain anycast from scratch and settles it.
func (w *goldenWorld) converge(t *testing.T) *Computation {
	t.Helper()
	c := w.e.NewComputation(w.prefix)
	c.Announce(Announcement{Origin: w.origin})
	if !c.Converge() {
		t.Fatal("anycast did not converge")
	}
	return c
}

// liveMux is the first mux whose best route comes straight from the
// origin: the uplink that actually carries the announcement.
func (w *goldenWorld) liveMux(t *testing.T, base *Computation) asn.ASN {
	t.Helper()
	for i := 0; ; i++ {
		m, ok := w.topo.Names[fmt.Sprintf("mux-%d", i)]
		if !ok {
			t.Fatal("no mux hears the origin directly")
		}
		if r, ok := base.Best(m); ok && r.NextHop == w.origin {
			return m
		}
	}
}

func writeRoute(h io.Writer, tag string, r Route) {
	fmt.Fprintf(h, "%s %s [%s] nh=%d from=%d org=%d lp=%d city=%d age=%d\n",
		tag, r.Prefix, r.Path, r.NextHop, r.FromRel, r.OrgRel, r.LocalPref, r.EgressCity, r.Age)
}

// stateDigest hashes everything the public accessors show of c.
func stateDigest(w *goldenWorld, c *Computation) string {
	h := sha256.New()
	for _, a := range w.topo.ASNs() {
		fmt.Fprintf(h, "as %d\n", a)
		if r, ok := c.Best(a); ok {
			writeRoute(h, "best", r)
		}
		if s, ok := c.Step(a); ok {
			fmt.Fprintf(h, "step %d\n", s)
		}
		for _, r := range c.Alternatives(a) {
			writeRoute(h, "alt", r)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// firstBusy applies a what-if edit to a fresh fork of base for each AS in
// ASN order and returns the first fork whose reconvergence changed at
// least ten best routes, so the pinned scenario does real work on every
// world (an edit that moves nothing would pin only the fork).
func firstBusy(t *testing.T, w *goldenWorld, base *Computation, apply func(f *Computation, a asn.ASN) bool) *Computation {
	t.Helper()
	for _, a := range w.topo.ASNs() {
		f := base.Freeze().Fork()
		if !apply(f, a) {
			continue
		}
		f.Converge()
		if _, changes := f.Counters(); changes >= 10 {
			return f
		}
	}
	t.Fatal("no AS makes the edit move ten routes")
	return nil
}

// goldenScenarios drive one computation each. All but the first two
// start from a fork of the frozen converged anycast (base, which
// TestEventIdentityGolden froze: freezing again only hands out another
// Base of it).
var goldenScenarios = []struct {
	name string
	run  func(t *testing.T, w *goldenWorld, base *Computation) *Computation
}{
	{"converge", func(t *testing.T, w *goldenWorld, _ *Computation) *Computation {
		return w.converge(t)
	}},
	{"poison_reconverge", func(t *testing.T, w *goldenWorld, _ *Computation) *Computation {
		c := w.converge(t)
		c.Announce(Announcement{Origin: w.origin, Poisoned: []asn.ASN{w.mux}})
		c.Converge()
		return c
	}},
	{"fork_poison_reconverge", func(t *testing.T, w *goldenWorld, base *Computation) *Computation {
		f := base.Freeze().Fork()
		f.Announce(Announcement{Origin: w.origin, Poisoned: []asn.ASN{w.mux}})
		f.Converge()
		return f
	}},
	{"fail_link", func(t *testing.T, w *goldenWorld, base *Computation) *Computation {
		f := base.Freeze().Fork()
		if err := f.FailLink(w.origin, w.liveMux(t, base)); err != nil {
			t.Fatal(err)
		}
		f.Converge()
		return f
	}},
	{"add_peering", func(t *testing.T, w *goldenWorld, base *Computation) *Computation {
		// The live mux buys transit from an AS it shares a city with:
		// the first one, in ASN order, that moves routes.
		live := w.liveMux(t, base)
		return firstBusy(t, w, base, func(f *Computation, b asn.ASN) bool {
			l, err := w.topo.ProposeLink(live, b, topology.RelProvider)
			return err == nil && f.AddPeering(l) == nil
		})
	}},
	{"set_local_pref", func(t *testing.T, w *goldenWorld, base *Computation) *Computation {
		// An AS holding a runner-up prefers it from now on: the first
		// one, in ASN order, whose change of mind moves other ASes.
		return firstBusy(t, w, base, func(f *Computation, a asn.ASN) bool {
			alts := base.Alternatives(a)
			return a != w.origin && len(alts) >= 2 && f.SetLocalPref(a, alts[1].NextHop, 1000) == nil
		})
	}},
	{"withdraw", func(t *testing.T, w *goldenWorld, base *Computation) *Computation {
		f := base.Freeze().Fork()
		f.Withdraw(w.origin)
		f.Converge()
		return f
	}},
}

// eventGolden is the pinned outcome per "seed/scenario": cumulative
// Counters() and the state digest. Regenerate only for a deliberate
// behaviour change: a mismatch prints the whole table in this syntax.
var eventGolden = map[string]struct {
	events, changes int
	digest          string
}{
	"1/converge":                {413, 560, "fcdefab07d1ca04c732700cb9f552f6abfa8c349c6f5b41416a093829088767f"},
	"1/poison_reconverge":       {863, 1136, "35131cd72a2ec112c91771410d639301ed409741b5e84302e4e929de0fb0a3ca"},
	"1/fork_poison_reconverge":  {450, 576, "35131cd72a2ec112c91771410d639301ed409741b5e84302e4e929de0fb0a3ca"},
	"1/fail_link":               {152, 158, "03dc891df965017d768a6065423bf2eab7c36a67f47d1f240c796839fe39db95"},
	"1/add_peering":             {47, 46, "f6a8d09aafaf322076012bfb2c766501db1e4938236bd250309ab6d53b4245d6"},
	"1/set_local_pref":          {43, 42, "4aac344cb328ab53e7fad0cd20a167491732a319ed9ab0540e58f38a5f25bbd5"},
	"1/withdraw":                {456, 708, "6de33413c8e835c50758d3864e705ed671b79e30193f8eb765f6014087815545"},
	"17/converge":               {472, 687, "18ad21f013ed6437507e7bbc93e546a506a40c75b04b2f2f1c66c0a31912b5a5"},
	"17/poison_reconverge":      {950, 1311, "a77fc9a1863355555eac197225d4385db0cfc9116ac8b5a501263d70abc4fa55"},
	"17/fork_poison_reconverge": {478, 624, "a77fc9a1863355555eac197225d4385db0cfc9116ac8b5a501263d70abc4fa55"},
	"17/fail_link":              {204, 241, "2915a98227d4bf9f8d1f9df1ba3093f1cbe43adf55b8520042eeddc55820a0ae"},
	"17/add_peering":            {61, 61, "9cd13f1b4edf9bca690f3795b99c83cae87549539acfc5517fe12cbc832941fb"},
	"17/set_local_pref":         {82, 81, "276623042df65f1c61c80d66d99e647191b6e3c18fb34c25de0e588d00b94a50"},
	"17/withdraw":               {420, 675, "6de33413c8e835c50758d3864e705ed671b79e30193f8eb765f6014087815545"},
}

func TestEventIdentityGolden(t *testing.T) {
	var table strings.Builder
	bad := false
	for _, seed := range []int64{1, 17} {
		w := newGoldenWorld(seed)
		base := w.converge(t)
		base.Freeze()
		baseDigest := stateDigest(w, base)
		for _, sc := range goldenScenarios {
			key := fmt.Sprintf("%d/%s", seed, sc.name)
			c := sc.run(t, w, base)
			events, changes := c.Counters()
			digest := stateDigest(w, c)
			fmt.Fprintf(&table, "\t%q: {%d, %d, %q},\n", key, events, changes, digest)
			if sc.name != "converge" && digest == baseDigest {
				t.Errorf("%s: the scenario left the converged anycast untouched; it pins nothing", key)
			}
			want, ok := eventGolden[key]
			if !ok || want.events != events || want.changes != changes || want.digest != digest {
				bad = true
				t.Errorf("%s: events=%d changes=%d digest=%s, want %+v", key, events, changes, digest, want)
			}
		}
	}
	if bad {
		t.Logf("measured table:\n%s", table.String())
	}
}
