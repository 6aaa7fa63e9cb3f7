package service

import (
	"reflect"

	"routelab/internal/obs"
)

// Memory accounting: the store's byte-budget eviction needs each sealed
// tenant's resident cost, measured once at build time. A sealed
// scenario does not grow while it is served: scenario.Build runs the
// magnet experiments and judges every decision of its campaign, which
// fills classify.Context's model cache for everything the figures,
// tables, the path predictor and /v1/classify read, and newTenant
// discovers every AS's alternates before it is walked, which is all
// /v1/alternates and the alternates and casestudies experiments read at
// any seed (TestServedTenantNeverOutgrowsCharge). sizeOf walks the
// object graph with reflect — no unsafe — and sums an estimate:
//
//   - every heap object reached through pointers, slices, maps, and
//     interfaces is counted once (a visited set keyed by data pointer
//     handles the heavy sharing in the topology/RIB graph);
//   - string bytes are counted per reference: reflect cannot take a
//     string's data pointer without unsafe, so interned AS-path strings
//     are over-counted. That errs toward evicting sooner, the safe
//     direction for a memory budget;
//   - map storage is estimated as len × (key+elem size + per-entry
//     overhead) — Go's map internals are not reachable by reflection;
//   - channel buffers count cap × elem size; buffered values are
//     invisible to reflect.
//
// Most of a tenant's bytes sit in slices whose elements reach no other
// memory (the bgp engine's route records and path nodes, address
// tables): the walk decides that once per element type and then charges
// such a slice cap × elem without visiting its elements, so it costs
// O(objects), not O(scalars).
//
// The walk stops at an obs record (*obs.Registry), charging nothing: a
// record is bookkeeping shared up the tree (the scenario's reaches the
// store's and the process's), bounded by its metric names, not by the
// world.
//
// The estimate is deterministic for a sealed scenario: the walk's
// iteration order varies, but sums are commutative and sharing is
// deduplicated by identity, so every walk of the same graph yields the
// same total.

var recordType = reflect.TypeFor[*obs.Registry]()

// mapEntryOverhead approximates Go's per-entry bucket cost (tophash,
// partial bucket occupancy, overflow pointers).
const mapEntryOverhead = 16

type sizeWalker struct {
	seen map[uintptr]bool
	// flat memoises, per type, whether a value of it references nothing
	// the walk would charge.
	flat map[reflect.Type]bool
	// everyElement makes the walk visit the elements of flat-typed
	// slices and arrays anyway: the reference the short cut is tested
	// against.
	everyElement bool
}

func newSizeWalker() *sizeWalker {
	return &sizeWalker{seen: make(map[uintptr]bool), flat: make(map[reflect.Type]bool)}
}

// isFlat reports whether referenced returns 0 for every value of t.
func (w *sizeWalker) isFlat(t reflect.Type) bool {
	if f, ok := w.flat[t]; ok {
		return f
	}
	f := true
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.String, reflect.Map, reflect.Chan:
		f = false
	case reflect.Array:
		f = w.isFlat(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField() && f; i++ {
			f = w.isFlat(t.Field(i).Type)
		}
	}
	w.flat[t] = f
	return f
}

// sizeOf estimates the resident bytes of v's full object graph.
func sizeOf(v any) int64 {
	if v == nil {
		return 0
	}
	rv := reflect.ValueOf(v)
	return int64(rv.Type().Size()) + newSizeWalker().referenced(rv)
}

// referenced returns the heap bytes reachable FROM v, excluding v's own
// inline representation (the container already counted that).
func (w *sizeWalker) referenced(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Type() == recordType || w.seen[v.Pointer()] {
			return 0
		}
		w.seen[v.Pointer()] = true
		e := v.Elem()
		return int64(e.Type().Size()) + w.referenced(e)
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		e := v.Elem()
		return int64(e.Type().Size()) + w.referenced(e)
	case reflect.Slice:
		if v.IsNil() || w.seen[v.Pointer()] {
			return 0
		}
		w.seen[v.Pointer()] = true
		n := int64(v.Cap()) * int64(v.Type().Elem().Size())
		if w.isFlat(v.Type().Elem()) && !w.everyElement {
			return n
		}
		for i := 0; i < v.Len(); i++ {
			n += w.referenced(v.Index(i))
		}
		return n
	case reflect.Array:
		if w.isFlat(v.Type().Elem()) && !w.everyElement {
			return 0
		}
		var n int64
		for i := 0; i < v.Len(); i++ {
			n += w.referenced(v.Index(i))
		}
		return n
	case reflect.String:
		return int64(v.Len())
	case reflect.Map:
		if v.IsNil() || w.seen[v.Pointer()] {
			return 0
		}
		w.seen[v.Pointer()] = true
		t := v.Type()
		n := int64(v.Len()) * (int64(t.Key().Size()) + int64(t.Elem().Size()) + mapEntryOverhead)
		iter := v.MapRange()
		for iter.Next() {
			// Iteration order is random, but addition commutes and the
			// visited set dedupes by identity, so the sum is stable.
			n += w.referenced(iter.Key())
			n += w.referenced(iter.Value())
		}
		return n
	case reflect.Struct:
		var n int64
		for i := 0; i < v.NumField(); i++ {
			n += w.referenced(v.Field(i))
		}
		return n
	case reflect.Chan:
		if v.IsNil() || w.seen[v.Pointer()] {
			return 0
		}
		w.seen[v.Pointer()] = true
		return int64(v.Cap()) * int64(v.Type().Elem().Size())
	default:
		// Scalars, funcs, unsafe pointers: inline or unknowable.
		return 0
	}
}

// accountSize runs the build-time accounting walk for one tenant: the
// sealed scenario graph (topology, RIB snapshots, measurements, the
// warm per-prefix anycast bases — AnycastBase caches them on the
// scenario's testbed, so the scenario walk reaches them — and every
// AS's discovered alternates, kept by the scenario) plus the static
// per-tenant state. Call after the bases are warm and the alternates
// discovered (newTenant does).
func (srv *Server) accountSize() int64 { return srv.accountSizeWith(newSizeWalker()) }

func (srv *Server) accountSizeWith(w *sizeWalker) int64 {
	rs := reflect.ValueOf(srv.s)
	n := int64(rs.Type().Size()) + w.referenced(rs)
	n += w.referenced(reflect.ValueOf(srv.traceIdx))
	n += w.referenced(reflect.ValueOf(srv.health))
	return n
}

// SizeBytes reports the tenant's resident-byte estimate, measured once
// at build time (sealed scenarios do not grow; see above). The store's byte
// budget sums these across residents to drive eviction.
func (srv *Server) SizeBytes() int64 { return srv.size }
