package ipasmap

import (
	"math/rand"
	"sort"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/obs"
	"routelab/internal/race"
	"routelab/internal/topology"
	"routelab/internal/traceroute"
	"routelab/internal/vantage"
)

type fixture struct {
	topo   *topology.Topology
	rib    *bgp.RIB
	mapper *Mapper
	tracer *traceroute.Tracer
	dst    asn.Addr
}

func newFixture(t *testing.T, seed int64, trCfg traceroute.Config) *fixture {
	t.Helper()
	topo := topology.Generate(seed, topology.TestConfig())
	e := bgp.New(topo, seed, obs.Default())
	rib := e.ComputeFullRIB(obs.Default(), 0)
	peers := vantage.SelectPeers(topo, rand.New(rand.NewSource(seed)), 30)
	snap := vantage.Collect(rib, peers, 0)
	cdn := topo.Names["cdn-major"]
	return &fixture{
		topo:   topo,
		rib:    rib,
		mapper: FromSnapshot(snap),
		tracer: traceroute.New(topo, rib, trCfg),
		dst:    topo.AS(cdn).Prefixes[0].Nth(40),
	}
}

func TestASOfLongestMatch(t *testing.T) {
	f := newFixture(t, 41, traceroute.DefaultConfig())
	if len(f.mapper.origin) == 0 {
		t.Fatal("mapper learned no prefixes")
	}
	// Announced prefixes resolve to their origin.
	for _, a := range f.topo.ASNs()[:50] {
		for _, p := range f.topo.AS(a).Prefixes {
			if got := f.mapper.ASOf(p.Nth(9)); got != a && got != 0 {
				t.Fatalf("ASOf inside %s = %v, want %v (or unknown)", p, got, a)
			}
		}
	}
	// Router addresses resolve through covering prefixes; IXP fabrics
	// stay unknown.
	first := f.topo.ASNs()[0]
	infra := f.topo.AS(first).InfraPrefix
	if got := f.mapper.ASOf(infra.Nth(1)); got != first && got != 0 {
		t.Errorf("router address resolved to %v, want %v or unknown", got, first)
	}
	if f.mapper.ASOf(topology.IXPPrefix(3).Nth(1)) != 0 {
		t.Error("IXP fabric resolved via BGP prefixes")
	}
	if f.mapper.ASOf(0) != 0 {
		t.Error("the zero address must be unknown")
	}
}

// With artifacts disabled, conversion must reproduce the true AS path
// modulo hops whose infrastructure is invisible to BGP (which the
// cleanup bridges).
func TestConvertCleanTraces(t *testing.T) {
	f := newFixture(t, 42, traceroute.Config{MaxHops: 30, Seed: 1})
	exact, total := 0, 0
	for _, src := range f.topo.ASesOfClass(topology.Stub)[:25] {
		tr := f.tracer.Trace(src, f.topo.AS(src).Cities[0], f.dst)
		if !tr.Reached {
			continue
		}
		got, ok := f.mapper.ConvertTrace(tr)
		if !ok {
			continue
		}
		total++
		if pathsEqual(got, tr.TrueASPath) {
			exact++
		}
	}
	if total == 0 {
		t.Fatal("no usable conversions")
	}
	if frac := float64(exact) / float64(total); frac < 0.9 {
		t.Errorf("only %.2f of clean traces converted exactly (%d/%d)", frac, exact, total)
	}
}

// With realistic artifact rates, conversion must still be mostly right —
// the Chen-et-al. pipeline achieves high accuracy — but not perfect.
func TestConvertNoisyTraces(t *testing.T) {
	f := newFixture(t, 43, traceroute.DefaultConfig())
	exact, total := 0, 0
	for _, src := range f.topo.ASesOfClass(topology.Stub)[:40] {
		tr := f.tracer.Trace(src, f.topo.AS(src).Cities[0], f.dst)
		if !tr.Reached {
			continue
		}
		got, ok := f.mapper.ConvertTrace(tr)
		if !ok {
			continue
		}
		total++
		if pathsEqual(got, tr.TrueASPath) {
			exact++
		}
	}
	if total < 20 {
		t.Fatalf("only %d usable conversions", total)
	}
	frac := float64(exact) / float64(total)
	t.Logf("noisy conversion accuracy: %d/%d = %.2f", exact, total, frac)
	if frac < 0.75 {
		t.Errorf("conversion accuracy %.2f too low to be useful", frac)
	}
}

func TestDropAnomaliesThirdParty(t *testing.T) {
	m := &Mapper{knownLink: map[topology.LinkKey]bool{}}
	// A X A collapses to A.
	got := m.dropAnomalies([]asn.ASN{1, 2, 1, 3})
	if len(got) != 3 || got[0] != 1 || got[1] != 1 && got[1] != 3 {
		// After dropping X=2 the two 1s merge: 1 3.
	}
	got = m.dropAnomalies([]asn.ASN{1, 2, 1})
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("A X A should collapse to A: %v", got)
	}
}

func TestDropAnomaliesPhantom(t *testing.T) {
	m := &Mapper{knownLink: map[topology.LinkKey]bool{
		topology.MakeLinkKey(1, 3): true,
	}}
	got := m.dropAnomalies([]asn.ASN{1, 2, 3})
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("phantom middle AS should be dropped: %v", got)
	}
	// If the middle AS has a known link to either side, keep it.
	m.knownLink[topology.MakeLinkKey(1, 2)] = true
	got = m.dropAnomalies([]asn.ASN{1, 2, 3})
	if len(got) != 3 {
		t.Errorf("legitimate middle AS dropped: %v", got)
	}
}

func pathsEqual(a, b []asn.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scan is the mapper's longest-prefix match as it stood before the
// one-probe-per-length lookup: every announced prefix, longest first,
// tested with Contains. Slow and obviously right.
type scan struct {
	prefixes []asn.Prefix
	origin   map[asn.Prefix]asn.ASN
}

func scanOf(m *Mapper) scan {
	r := scan{origin: m.origin}
	for p := range m.origin {
		r.prefixes = append(r.prefixes, p)
	}
	sort.Slice(r.prefixes, func(i, j int) bool {
		if r.prefixes[i].Len != r.prefixes[j].Len {
			return r.prefixes[i].Len > r.prefixes[j].Len
		}
		return r.prefixes[i].Addr < r.prefixes[j].Addr
	})
	return r
}

func (r scan) asOf(ip asn.Addr) asn.ASN {
	if ip == 0 {
		return 0
	}
	for _, p := range r.prefixes {
		if p.Contains(ip) {
			return r.origin[p]
		}
	}
	return 0
}

func (r scan) prefixOf(ip asn.Addr) asn.Prefix {
	for _, p := range r.prefixes {
		if p.Contains(ip) {
			return p
		}
	}
	return asn.Prefix{}
}

func agreeWithScan(t *testing.T, m *Mapper, ips []asn.Addr) {
	t.Helper()
	ref := scanOf(m)
	for _, ip := range ips {
		if got, want := m.ASOf(ip), ref.asOf(ip); got != want {
			t.Fatalf("ASOf(%s) = %v, the scan says %v", ip, got, want)
		}
		if got, want := m.PrefixOf(ip), ref.prefixOf(ip); got != want {
			t.Fatalf("PrefixOf(%s) = %s, the scan says %s", ip, got, want)
		}
	}
}

// TestLookupMatchesLinearScan is the differential oracle for the
// per-length probe: on a hand-built table of nested prefixes and on a
// generated world's campaign, ASOf and PrefixOf answer as the scan does.
func TestLookupMatchesLinearScan(t *testing.T) {
	nested := &vantage.Snapshot{}
	for _, e := range []struct {
		prefix string
		origin asn.ASN
	}{
		{"10.0.0.0/8", 1}, {"10.1.0.0/16", 2}, {"10.1.2.0/24", 3}, {"10.1.2.128/25", 4},
		{"10.200.0.0/13", 5}, {"192.0.2.0/24", 6}, {"192.0.2.0/24", 7}, // a repeat keeps its first origin
	} {
		p, err := asn.ParsePrefix(e.prefix)
		if err != nil {
			t.Fatal(err)
		}
		nested.Entries = append(nested.Entries, vantage.Entry{Peer: 9, Prefix: p, Path: []asn.ASN{9, e.origin}})
	}
	m := FromSnapshot(nested)
	if len(m.origin) != 6 {
		t.Fatalf("mapper knows %d prefixes, want 6", len(m.origin))
	}
	for ip, want := range map[asn.Addr]asn.ASN{
		asn.AddrFrom4(10, 9, 9, 9):      1,
		asn.AddrFrom4(10, 1, 9, 9):      2,
		asn.AddrFrom4(10, 1, 2, 9):      3,
		asn.AddrFrom4(10, 1, 2, 200):    4,
		asn.AddrFrom4(10, 201, 0, 1):    5,
		asn.AddrFrom4(10, 208, 0, 1):    1, // just past the /13
		asn.AddrFrom4(192, 0, 2, 1):     6,
		asn.AddrFrom4(11, 0, 0, 1):      0, // covered by nothing
		asn.AddrFrom4(192, 0, 3, 1):     0,
		asn.AddrFrom4(255, 255, 255, 1): 0,
		0:                               0,
	} {
		if got := m.ASOf(ip); got != want {
			t.Errorf("ASOf(%s) = %v, want %v", ip, got, want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	ips := []asn.Addr{0}
	for i := 0; i < 4000; i++ {
		ips = append(ips, asn.Addr(rng.Uint32()), asn.AddrFrom4(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))))
	}
	agreeWithScan(t, m, ips)

	f := newFixture(t, 44, traceroute.DefaultConfig())
	ips = []asn.Addr{0, topology.IXPPrefix(3).Nth(1)}
	for _, src := range f.topo.ASesOfClass(topology.Stub)[:60] {
		for _, h := range f.tracer.Trace(src, f.topo.AS(src).Cities[0], f.dst).Hops {
			ips = append(ips, h.IP)
		}
	}
	if len(ips) < 200 {
		t.Fatalf("campaign produced only %d hop addresses", len(ips))
	}
	for i := 0; i < 2000; i++ {
		ips = append(ips, asn.Addr(rng.Uint32()))
	}
	agreeWithScan(t, f.mapper, ips)
}

// TestAllocsASOf pins that mapping a hop address allocates nothing.
func TestAllocsASOf(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	f := newFixture(t, 41, traceroute.DefaultConfig())
	ips := []asn.Addr{0, f.dst, topology.IXPPrefix(3).Nth(1), f.topo.AS(f.topo.ASNs()[0]).InfraPrefix.Nth(1)}
	sink := asn.ASN(0)
	if got := testing.AllocsPerRun(100, func() {
		for _, ip := range ips {
			sink += f.mapper.ASOf(ip)
		}
	}); got != 0 {
		t.Errorf("ASOf: %v allocs/op, want 0", got)
	}
	_ = sink
}
