// Package obs is routelab's observability layer: named counters,
// gauges, and per-stage timers behind a Registry with a deterministic
// snapshot API. It is dependency-free (standard library only) and built
// for instrumentation from inside parallel stages, so every update path
// is safe for concurrent use.
//
// # Model
//
//   - A Counter is a monotone int64 (events, items, routes). Hot paths
//     keep a *Counter handle (one registry lookup, then atomic adds).
//   - A Gauge is a last-write-wins float64 (items/sec, utilization,
//     worker counts).
//   - A Timer aggregates wall-clock durations of a named stage: count,
//     total, min, max. Stages are coarse (a convergence, a campaign, a
//     figure), so a mutex per observation is fine.
//
// # Children
//
// A child registry, NewRegistry(parent), is the record of one piece of
// work, such as a scenario build. Each child metric holds a handle on
// the parent's metric of the same name, which its every Add, Set and
// Observe also lands on, and a child's stages reach the parent's
// listeners too: the process registry (Default) sees everything, each
// child only its own.
//
// # Determinism
//
// Metrics are a side channel: instrumented code must produce
// byte-identical experiment output whether or not anything reads the
// registry (see internal/parallel's contract). Snapshot itself is
// deterministic in shape — stages sorted by name, counters/gauges as
// maps (encoding/json renders map keys sorted) — though the recorded
// durations naturally vary run to run.
//
// # Resetting
//
// Reset zeroes every metric of one registry IN PLACE instead of
// dropping it, so handles held elsewhere (a bgp.Engine holds its own)
// stay attached and registered names survive into the next snapshot
// with zero values. Resetting a parent leaves its children's values.
package obs

import (
	"expvar"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotone event count. The zero value is ready to use.
type Counter struct {
	v  atomic.Int64
	up *Counter // the parent registry's counter of the same name
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	for ; c != nil; c = c.up {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float64 measurement. The zero value is
// ready to use.
type Gauge struct {
	bits atomic.Uint64
	up   *Gauge // the parent registry's gauge of the same name
}

// Set records the gauge's current value. Set on a nil gauge does
// nothing.
func (g *Gauge) Set(v float64) {
	for ; g != nil; g = g.up {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last value Set.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Timer aggregates wall-clock durations of one named stage.
type Timer struct {
	mu       sync.Mutex
	count    int64
	total    time.Duration
	min, max time.Duration
	up       *Timer // the parent registry's timer of the same name
}

// Observe folds one stage execution into the aggregate.
func (t *Timer) Observe(d time.Duration) {
	for ; t != nil; t = t.up {
		t.mu.Lock()
		t.count++
		t.total += d
		if t.count == 1 || d < t.min {
			t.min = d
		}
		if d > t.max {
			t.max = d
		}
		t.mu.Unlock()
	}
}

// Mean returns the mean observed duration, or 0 before any Observe.
// It reads recorded aggregates only — callers that must not touch the
// wall clock (the service layer's Retry-After estimate) use it to
// reason about stage cost without a clock read.
func (t *Timer) Mean() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == 0 {
		return 0
	}
	return t.total / time.Duration(t.count)
}

// Registry holds a namespace of metrics. The zero value is not usable;
// call NewRegistry (or use Default).
type Registry struct {
	parent *Registry

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer

	lmu       sync.Mutex
	listeners []*listener // in registration order, the dispatch order
}

// NewRegistry returns an empty registry. A non-nil parent makes it a
// child of parent: every metric update and stage event on it also
// reaches parent (see the package comment).
func NewRegistry(parent *Registry) *Registry {
	return &Registry{
		parent:   parent,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// listener is one OnStage registration: every call in flight holds mu
// for reading, so cancel, which takes it for writing, waits them out.
type listener struct {
	fn        func(name string, begin bool)
	mu        sync.RWMutex
	cancelled bool
}

func (l *listener) call(name string, begin bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if !l.cancelled {
		l.fn(name, begin)
	}
}

// OnStage registers fn to be called at the begin (begin=true) and end
// (begin=false) of every stage started through StartStage on this
// registry or on any child of it. The returned cancel func unregisters
// it; after cancel returns fn will not be called again, so cancel waits
// for calls of fn already in flight and fn must not cancel itself.
// Listeners run synchronously on the instrumented goroutine, so fn must
// be fast and must not call back into StartStage.
//
// Listeners exist so coarse pipelines can be observed live from outside:
// the ledger (bench/) subscribes here to turn stages into trace spans.
// Listeners of the process registry see every stage in the process,
// whoever started it, because every child forwards its stages to it.
func (r *Registry) OnStage(fn func(name string, begin bool)) (cancel func()) {
	l := &listener{fn: fn}
	r.lmu.Lock()
	r.listeners = append(r.listeners, l)
	r.lmu.Unlock()
	return func() {
		r.lmu.Lock()
		r.listeners = slices.DeleteFunc(r.listeners, func(x *listener) bool { return x == l })
		r.lmu.Unlock()
		l.mu.Lock()
		l.cancelled = true
		l.mu.Unlock()
	}
}

// notifyStage calls the listeners of r, then those of each ancestor.
func (r *Registry) notifyStage(name string, begin bool) {
	for ; r != nil; r = r.parent {
		r.lmu.Lock()
		ls := slices.Clone(r.listeners)
		r.lmu.Unlock()
		for _, l := range ls {
			l.call(name, begin)
		}
	}
}

// StartStage starts timing a named stage on this registry and notifies
// stage listeners of the begin; the returned func records the elapsed
// wall time and notifies the end:
//
//	defer reg.StartStage("scenario/topology")()
//
// Snapshot lists the stage from before any listener hears its begin. A
// child and its ancestors record the one duration read at its end.
func (r *Registry) StartStage(name string) func() {
	t := r.Timer(name)
	r.notifyStage(name, true)
	t0 := time.Now()
	return func() {
		t.Observe(time.Since(t0))
		r.notifyStage(name, false)
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	return metric(r, r.counters, name, (*Registry).Counter, func(up *Counter) *Counter { return &Counter{up: up} })
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return metric(r, r.gauges, name, (*Registry).Gauge, func(up *Gauge) *Gauge { return &Gauge{up: up} })
}

// Timer returns the named stage timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	return metric(r, r.timers, name, (*Registry).Timer, func(up *Timer) *Timer { return &Timer{up: up} })
}

// metric returns m[name], creating it on first use as mk of the parent's
// metric of that name (nil without a parent).
func metric[T any](r *Registry, m map[string]*T, name string, parent func(*Registry, string) *T, mk func(up *T) *T) *T {
	r.mu.RLock()
	v := m[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	var up *T
	if r.parent != nil {
		up = parent(r.parent, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[name]; v == nil {
		v = mk(up)
		m[name] = v
	}
	return v
}

// Reset zeroes every metric of this registry in place, preserving
// handles and registered names (see the package comment).
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, t := range r.timers {
		t.mu.Lock()
		t.count, t.total, t.min, t.max = 0, 0, 0, 0
		t.mu.Unlock()
	}
}

// StageStat is one timer's aggregate in a Snapshot. Durations are
// nanoseconds of wall clock.
type StageStat struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	MinNS   int64  `json:"min_ns"`
	MaxNS   int64  `json:"max_ns"`
	MeanNS  int64  `json:"mean_ns"`
}

// Snapshot is a point-in-time copy of a registry: counters and gauges
// by name, stage timers sorted by name. It marshals deterministically
// (encoding/json renders map keys in sorted order).
type Snapshot struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
	Stages   []StageStat        `json:"stages"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
		Stages:   make([]StageStat, 0, len(r.timers)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	// Stage order is part of the snapshot contract: walk sorted timer
	// names instead of map order (maporder).
	names := make([]string, 0, len(r.timers))
	for name := range r.timers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := r.timers[name]
		t.mu.Lock()
		st := StageStat{
			Name:    name,
			Count:   t.count,
			TotalNS: int64(t.total),
			MinNS:   int64(t.min),
			MaxNS:   int64(t.max),
		}
		if t.count > 0 {
			st.MeanNS = int64(t.total) / t.count
		}
		t.mu.Unlock()
		s.Stages = append(s.Stages, st)
	}
	return s
}

// PublishExpvar exposes the registry as one expvar variable (a JSON
// snapshot under the given name, served at /debug/vars). expvar panics
// on duplicate names, so call this at most once per name per process —
// cmd/routelab does it only when -debug-addr is set.
func (r *Registry) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// --- default registry -------------------------------------------------

var defaultRegistry = NewRegistry(nil)

// Default is the process-wide registry, which sums: every record is a
// child of it (a store's, each build's under that, where the scenario's
// later work records too), and whatever a child records lands here as
// well. Only a build given no record of its own records here directly.
// cmd/routelab and routelabd snapshot it for -metrics-json and
// /v1/metrics; the ledger (bench/) listens and resets here.
func Default() *Registry { return defaultRegistry }

// OnStage registers a stage listener on the default registry (see
// Registry.OnStage).
func OnStage(fn func(name string, begin bool)) (cancel func()) {
	return defaultRegistry.OnStage(fn)
}

// Snap snapshots the default registry.
func Snap() Snapshot { return defaultRegistry.Snapshot() }

// Reset zeroes the default registry in place (tests and the ledger,
// bench/, use this to scope counters to one run).
func Reset() { defaultRegistry.Reset() }
