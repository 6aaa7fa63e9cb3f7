package service

import (
	"testing"
)

// TestSizeOfSynthetic pins the accounting model on small graphs where
// the expected byte count can be derived by hand.
func TestSizeOfSynthetic(t *testing.T) {
	if got := sizeOf(nil); got != 0 {
		t.Errorf("sizeOf(nil) = %d, want 0", got)
	}
	// A string counts its bytes (plus the 16-byte header the top-level
	// Type().Size() contributes).
	if got := sizeOf("abcd"); got != 16+4 {
		t.Errorf("sizeOf(string) = %d, want 20", got)
	}
	// A slice counts cap × elem, not len × elem.
	s := make([]int64, 2, 8)
	if got := sizeOf(s); got != 24+8*8 {
		t.Errorf("sizeOf(slice) = %d, want %d", got, 24+8*8)
	}
	// A buffered channel counts cap × elem even though the buffered
	// values are invisible to reflect.
	ch := make(chan int64, 5)
	if got := sizeOf(ch); got != 8+5*8 {
		t.Errorf("sizeOf(chan) = %d, want %d", got, 8+5*8)
	}
	// Maps estimate len × (key + elem + overhead) and walk the entries.
	m := map[int32]int32{1: 1, 2: 2}
	if got := sizeOf(m); got != 8+2*(4+4+mapEntryOverhead) {
		t.Errorf("sizeOf(map) = %d, want %d", got, 8+2*(4+4+mapEntryOverhead))
	}
}

// TestSizeOfSharedPointersCountedOnce is the dedup contract: the
// topology/RIB graph shares nodes heavily, and each shared object must
// be charged once, not once per reference.
func TestSizeOfSharedPointersCountedOnce(t *testing.T) {
	type node struct{ payload [128]byte }
	n := &node{}
	type pair struct{ a, b *node }
	shared := sizeOf(pair{a: n, b: n})
	distinct := sizeOf(pair{a: &node{}, b: &node{}})
	if shared >= distinct {
		t.Errorf("shared graph %d bytes >= distinct graph %d bytes; pointer dedup broken", shared, distinct)
	}
	if want := distinct - 128; shared != want {
		t.Errorf("shared graph %d bytes, want %d (one node charged once)", shared, want)
	}
}

// TestSizeOfDeterministic: map iteration order varies per walk, but the
// total must not — the store's byte ledger depends on the same graph
// always weighing the same.
func TestSizeOfDeterministic(t *testing.T) {
	s := testScenario(t)
	first := sizeOf(s)
	if first <= 0 {
		t.Fatalf("sizeOf(scenario) = %d, want > 0", first)
	}
	for i := 0; i < 5; i++ {
		if got := sizeOf(s); got != first {
			t.Fatalf("walk %d: sizeOf = %d, want %d (nondeterministic accounting)", i, got, first)
		}
	}
}

// TestSizeWalkShortCutIsExact: charging a slice of pointer-free
// elements without visiting them must not move the total. The reference
// is the same walk with the short cut off, on a whole built tenant —
// whose RIB columns, route rows and path nodes are exactly such slices.
func TestSizeWalkShortCutIsExact(t *testing.T) {
	srv := newTenant(testScenario(t), Config{}, newCache(0).partition(DefaultID))
	full := newSizeWalker()
	full.everyElement = true
	if got := srv.accountSizeWith(full); got != srv.SizeBytes() {
		t.Errorf("visiting every element weighs the tenant at %d bytes, the short cut at %d", got, srv.SizeBytes())
	}
	type flat struct {
		a [3]uint16
		b struct{ c, d int32 }
	}
	type holder struct {
		flats []flat
		names []string
	}
	h := holder{flats: make([]flat, 3, 5), names: []string{"ab", "cde"}}
	if got, want := sizeOf(h), int64(48+5*16+2*16+5); got != want {
		t.Errorf("sizeOf(holder) = %d, want %d", got, want)
	}
}

// TestAccountSizeCoversTenant: the tenant walk must weigh at least the
// sealed scenario it wraps (it adds indexes and the health body on
// top), be stable across re-walks, and be what SizeBytes reports.
func TestAccountSizeCoversTenant(t *testing.T) {
	srv := newTenant(testScenario(t), Config{}, newCache(0).partition(DefaultID))
	if srv.SizeBytes() != srv.size {
		t.Error("SizeBytes does not report the build-time measurement")
	}
	if srv.SizeBytes() <= 0 {
		t.Fatalf("SizeBytes = %d, want > 0", srv.SizeBytes())
	}
	if bare := sizeOf(srv.s); srv.SizeBytes() < bare {
		t.Errorf("tenant %d bytes < bare scenario %d bytes", srv.SizeBytes(), bare)
	}
	if again := srv.accountSize(); again != srv.size {
		t.Errorf("re-walk %d != build-time %d (accounting not deterministic)", again, srv.size)
	}
}
