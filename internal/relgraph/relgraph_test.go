package relgraph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/race"
	"routelab/internal/topology"
)

// model is the obviously-right graph the sorted-row layout is held to:
// one map entry per directed pair.
type model map[[2]asn.ASN]topology.Rel

func (m model) set(a, b asn.ASN, roleOfB topology.Rel) {
	m[[2]asn.ASN{a, b}] = roleOfB
	m[[2]asn.ASN{b, a}] = roleOfB.Invert()
}

func (m model) neighbors(a asn.ASN) []asn.ASN {
	out := []asn.ASN{}
	for k := range m {
		if k[0] == a {
			out = append(out, k[1])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m model) asns() []asn.ASN {
	seen := map[asn.ASN]bool{}
	var out []asn.ASN
	for k := range m {
		if !seen[k[0]] {
			seen[k[0]] = true
			out = append(out, k[0])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m model) edges() []Edge {
	var out []Edge
	for k, r := range m {
		if k[0] < k[1] {
			out = append(out, Edge{A: k[0], B: k[1], Role: r})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// TestGraphMatchesMapModel drives a graph and the model through the same
// seeded sequence of Set calls — fresh pairs, overwrites of an existing
// pair, both argument orders — and compares every reader after every
// step.
func TestGraphMatchesMapModel(t *testing.T) {
	roles := []topology.Rel{topology.RelCustomer, topology.RelProvider, topology.RelPeer, topology.RelSibling}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const nAS = 12
		g, m := New(), model{}
		if got := g.Neighbors(1); got == nil || len(got) != 0 {
			t.Fatalf("seed %d: Neighbors on an empty graph = %#v, want empty non-nil", seed, got)
		}
		var set [][2]asn.ASN
		for step := 0; step < 150; step++ {
			a, b := asn.ASN(1+rng.Intn(nAS)), asn.ASN(1+rng.Intn(nAS))
			if len(set) > 0 && rng.Intn(3) == 0 {
				// Overwrite a pair set earlier, in either argument order.
				p := set[rng.Intn(len(set))]
				if a, b = p[0], p[1]; rng.Intn(2) == 0 {
					a, b = b, a
				}
			}
			if a == b {
				continue
			}
			role := roles[rng.Intn(len(roles))]
			g.Set(a, b, role)
			m.set(a, b, role)
			set = append(set, [2]asn.ASN{a, b})

			for x := asn.ASN(0); x <= nAS+1; x++ { // 0 and nAS+1 are never set
				for y := asn.ASN(0); y <= nAS+1; y++ {
					want := m[[2]asn.ASN{x, y}]
					if got := g.Rel(x, y); got != want {
						t.Fatalf("seed %d step %d: Rel(%v, %v) = %s, want %s", seed, step, x, y, got, want)
					}
					if got := g.HasEdge(x, y); got != (want != topology.RelNone) {
						t.Fatalf("seed %d step %d: HasEdge(%v, %v) = %v", seed, step, x, y, got)
					}
				}
				got := g.Neighbors(x)
				if got == nil || !reflect.DeepEqual(got, m.neighbors(x)) {
					t.Fatalf("seed %d step %d: Neighbors(%v) = %#v, want %v", seed, step, x, got, m.neighbors(x))
				}
			}
			if got, want := g.Edges(), m.edges(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: Edges = %v, want %v", seed, step, got, want)
			}
			if got, want := g.NumEdges(), len(m.edges()); got != want {
				t.Fatalf("seed %d step %d: NumEdges = %d, want %d", seed, step, got, want)
			}
			if got, want := g.ASNs(), m.asns(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: ASNs = %v, want %v", seed, step, got, want)
			}
			checkRows(t, g)
		}
	}
}

// checkRows holds the dense side of the layout to the ASN side: indices
// and ASNs map both ways, every row ascends, and every entry carries its
// neighbour's index and the inverse of the entry pointing back.
func checkRows(t *testing.T, g *Graph) {
	t.Helper()
	for i := int32(0); i < int32(g.NumASes()); i++ {
		a := g.ASN(i)
		if back, ok := g.Index(a); !ok || back != i {
			t.Fatalf("Index(ASN(%d)) = %d, %v", i, back, ok)
		}
		row := g.Row(i)
		for k, e := range row {
			if k > 0 && row[k-1].ASN >= e.ASN {
				t.Fatalf("row of %v not strictly ascending: %v", a, row)
			}
			if g.ASN(e.Index) != e.ASN {
				t.Fatalf("row of %v: entry %v carries index %d = %v", a, e.ASN, e.Index, g.ASN(e.Index))
			}
			if g.Rel(e.ASN, a) != e.Role.Invert() {
				t.Fatalf("row of %v: %v is %s but the way back says %s", a, e.ASN, e.Role, g.Rel(e.ASN, a))
			}
		}
	}
}

// Index assignment follows the order of Set calls and nothing else:
// two graphs built by the same calls are laid out identically.
func TestIndexAssignmentFollowsSetOrder(t *testing.T) {
	build := func() *Graph {
		g := New()
		g.Set(30, 10, topology.RelCustomer)
		g.Set(20, 30, topology.RelPeer)
		g.Set(10, 5, topology.RelProvider)
		return g
	}
	g := build()
	for i, want := range []asn.ASN{30, 10, 20, 5} {
		if got := g.ASN(int32(i)); got != want {
			t.Errorf("index %d holds %v, want %v (order of first mention)", i, got, want)
		}
	}
	if !reflect.DeepEqual(g, build()) {
		t.Error("the same Set calls built two different layouts")
	}
}

func TestFromTopologyMatchesLinks(t *testing.T) {
	topo := topology.Generate(9, topology.TestConfig())
	g := FromTopology(topo)
	if g.NumEdges() != topo.NumLinks() {
		t.Fatalf("graph has %d edges, topology %d links", g.NumEdges(), topo.NumLinks())
	}
	topo.Links(func(l *topology.Link) {
		if got := g.Rel(l.Lo, l.Hi); got != l.HiRole {
			t.Fatalf("Rel(%v, %v) = %s, want %s", l.Lo, l.Hi, got, l.HiRole)
		}
	})
	if !reflect.DeepEqual(g, FromTopology(topo)) {
		t.Error("two builds from one topology are laid out differently")
	}
}

// TestAllocsReads pins the reads the analysis plane hammers: Rel, and a
// walk over an adjacency row, allocate nothing.
func TestAllocsReads(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	g := FromTopology(topology.Generate(9, topology.TestConfig()))
	asns := g.ASNs()
	sink := 0
	if got := testing.AllocsPerRun(100, func() {
		for _, a := range asns[:40] {
			sink += int(g.Rel(a, asns[0])) + int(g.Rel(asns[0], a))
		}
	}); got != 0 {
		t.Errorf("Rel: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		for i := int32(0); i < int32(g.NumASes()); i++ {
			for _, e := range g.Row(i) {
				sink += int(e.Index) + int(e.Role)
			}
		}
	}); got != 0 {
		t.Errorf("walking every row: %v allocs/op, want 0", got)
	}
	_ = sink
}
