package bgp

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"routelab/internal/asn"
)

// containsWalk is contains as it was before paths carried a membership
// mask: the plain walk to the root.
func containsWalk(t *pathTree, id uint32, a asn.ASN) bool {
	for id != 0 {
		n := t.node(id)
		if n.flags&nodeIsSet != 0 {
			if slices.Contains(t.set(n.as), a) {
				return true
			}
		} else if n.as == uint32(a) {
			return true
		}
		id = n.parent
	}
	return false
}

// TestContainsMatchesWalk pins that the mask only ever answers "not on
// the path" for an AS that is not: on a generated tree of three chained
// segments (a root, a fork, a fork of the fork — the last on recycled
// storage), grown by prepending ASes and AS_SETs to random earlier paths
// of the whole chain, contains agrees with the walk for every path and
// every AS of the pool, queried through each segment that can see the
// path.
func TestContainsMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pool := make([]asn.ASN, 300)
	for k := range pool {
		pool[k] = asn.ASN(1 + rng.Intn(70000))
	}
	grow := func(tr *pathTree, n int) {
		for k := 0; k < n; k++ {
			end := tr.base + uint32(len(tr.nodes))
			parent := uint32(rng.Intn(int(end)))
			if parent != 0 && rng.Intn(6) == 0 {
				members := make([]asn.ASN, 1+rng.Intn(4))
				for m := range members {
					members[m] = pool[rng.Intn(len(pool))]
				}
				parent = tr.childSet(parent, members)
			}
			tr.child(parent, pool[rng.Intn(len(pool))], uint16(rng.Intn(5)), false)
		}
	}
	root := newPathTree(16)
	grow(&root, 400)
	spent := root.fork(pathTree{})
	grow(&spent, 200)
	mid := root.fork(pathTree{})
	grow(&mid, 300)
	leaf := mid.fork(spent)
	grow(&leaf, 300)

	for _, tr := range []*pathTree{&root, &mid, &leaf} {
		if len(tr.masks) != len(tr.nodes) {
			t.Fatalf("segment at %d holds %d masks for %d nodes", tr.base, len(tr.masks), len(tr.nodes))
		}
		for id := uint32(0); id < tr.base+uint32(len(tr.nodes)); id++ {
			for _, a := range pool {
				if got, want := tr.contains(id, a), containsWalk(tr, id, a); got != want {
					t.Fatalf("path %d seen from the segment at %d: contains(%s) = %v, the walk says %v", id, tr.base, a, got, want)
				}
			}
		}
	}
}

// TestPathMaskFalsePositives measures what the mask is for on the test
// world: of the (advertised path, neighbor) loop checks a convergence and
// a poisoned reconvergence on a fork make, how many the AND settles, and
// how many walk for nothing. It logs the share of wasted walks (64 bits
// over paths of four or five ASes: about 7 %) and holds it under 15 %.
func TestPathMaskFalsePositives(t *testing.T) {
	k := newKernelFixture(t)
	f := k.base.Fork()
	k.poison(f)
	e := k.e
	absent, walked := 0, 0
	for i := range f.best {
		r := &f.best[i]
		if r.path == 0 {
			continue
		}
		adv := r.path
		if r.nh >= 0 {
			adv = f.extend(r.path, int32(i))
		}
		for _, a := range e.adj[e.off[i]:e.off[i+1]] {
			n := e.asns[a.peer]
			if containsWalk(&f.paths, adv, n) {
				if !f.paths.contains(adv, n) {
					t.Fatalf("contains misses %s on %v", n, f.paths.path(adv))
				}
				continue
			}
			absent++
			if f.paths.mask(adv)&maskBit(n) != 0 {
				walked++
			}
		}
	}
	share := float64(walked) / float64(absent)
	t.Logf("%d loop checks of an AS not on the path: %d walked anyway (%.1f %%)", absent, walked, 100*share)
	if absent == 0 || share > 0.15 {
		t.Errorf("the mask lets %.1f %% of %d absent-AS checks walk, want <= 15 %%", 100*share, absent)
	}
}

// TestPathTextMatchesMaterialised holds appendText, which renders a what-if
// diff's paths straight off the tree, to the path it replaces: the
// asn.Path the tree materialises, rendered by its String. On the test
// world's plain converged anycast, and on a fork of it re-announced with
// two muxes poisoned and two extra origin copies (an AS_SET of two members
// between sequence runs), every best route and every candidate
// Alternatives draws from — the origin route and each adj-RIB-in entry —
// renders to the same text both ways.
func TestPathTextMatchesMaterialised(t *testing.T) {
	k := newKernelFixture(t)
	mux1 := k.e.topo.Names["mux-1"]
	if mux1 == 0 || mux1 == k.mux {
		t.Fatalf("the test world has no second mux (mux-1 = %s)", mux1)
	}
	plain := k.converge()
	poisoned := k.base.Fork()
	poisoned.Announce(Announcement{Origin: k.origin, Poisoned: []asn.ASN{mux1, k.mux}, Prepend: 2})
	if !poisoned.Converge().Settled {
		t.Fatal("the poisoned, prepended announcement did not settle")
	}
	for _, tc := range []struct {
		name string
		c    *Computation
		// sets is whether some path must carry an AS_SET.
		sets bool
	}{{"plain", plain, false}, {"poison+prepend", poisoned, true}} {
		c := tc.c
		checked, withSet := 0, 0
		check := func(r *rec) {
			if r.path == 0 {
				return
			}
			got, want := string(c.paths.appendText(nil, r.path)), c.paths.path(r.path).String()
			if got != want {
				t.Fatalf("%s: path %d renders %q off the tree, %q materialised", tc.name, r.path, got, want)
			}
			checked++
			if strings.Contains(got, ",") {
				withSet++
			}
		}
		for i := range c.best {
			check(&c.best[i])
			if r, ok := c.origin[int32(i)]; ok {
				check(&r)
			}
			for k := range c.adjIn[i] {
				check(&c.adjIn[i][k])
			}
		}
		t.Logf("%s: %d paths render alike, %d with a two-member AS_SET", tc.name, checked, withSet)
		if checked == 0 || (withSet > 0) != tc.sets {
			t.Errorf("%s: %d paths checked, %d with an AS_SET", tc.name, checked, withSet)
		}
	}
}
