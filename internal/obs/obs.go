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
// Reset zeroes every metric IN PLACE instead of dropping it, so handles
// cached in package variables (internal/bgp does this) stay attached
// and registered names survive into the next snapshot with zero values.
package obs

import (
	"expvar"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotone event count. The zero value is ready to use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float64 measurement. The zero value is
// ready to use.
type Gauge struct{ bits atomic.Uint64 }

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value Set.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Timer aggregates wall-clock durations of one named stage.
type Timer struct {
	mu       sync.Mutex
	count    int64
	total    time.Duration
	min, max time.Duration
}

// Observe folds one stage execution into the aggregate.
func (t *Timer) Observe(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	t.total += d
	if t.count == 1 || d < t.min {
		t.min = d
	}
	if d > t.max {
		t.max = d
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

// Start begins timing a stage execution; the returned func stops the
// clock and records the elapsed wall time:
//
//	defer timer.Start()()
func (t *Timer) Start() func() {
	t0 := time.Now()
	return func() { t.Observe(time.Since(t0)) }
}

// Registry holds a namespace of metrics. The zero value is not usable;
// call NewRegistry (or use Default).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer

	lmu       sync.Mutex
	listeners map[int]func(name string, begin bool)
	nextLis   int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// OnStage registers fn to be called at the begin (begin=true) and end
// (begin=false) of every stage started through StartStage on this
// registry. The returned cancel func unregisters it; after cancel
// returns fn will not be called again. Listeners run synchronously on
// the instrumented goroutine, so fn must be fast and must not call back
// into StartStage.
//
// Listeners exist so coarse pipelines can be observed live from outside:
// the ledger (bench/) subscribes here to turn stages into trace spans.
// Listeners see every stage in the process, whoever started it.
func (r *Registry) OnStage(fn func(name string, begin bool)) (cancel func()) {
	r.lmu.Lock()
	defer r.lmu.Unlock()
	if r.listeners == nil {
		r.listeners = make(map[int]func(string, bool))
	}
	id := r.nextLis
	r.nextLis++
	r.listeners[id] = fn
	return func() {
		r.lmu.Lock()
		defer r.lmu.Unlock()
		delete(r.listeners, id)
	}
}

func (r *Registry) notifyStage(name string, begin bool) {
	r.lmu.Lock()
	if len(r.listeners) == 0 {
		r.lmu.Unlock()
		return
	}
	// Deterministic dispatch order (maporder): ids ascend.
	ids := make([]int, 0, len(r.listeners))
	for id := range r.listeners {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fns := make([]func(string, bool), 0, len(ids))
	for _, id := range ids {
		fns = append(fns, r.listeners[id])
	}
	r.lmu.Unlock()
	for _, fn := range fns {
		fn(name, begin)
	}
}

// StartStage starts timing a named stage on this registry and notifies
// stage listeners of the begin; the returned func records the elapsed
// wall time and notifies the end:
//
//	defer reg.StartStage("scenario/topology")()
func (r *Registry) StartStage(name string) func() {
	r.notifyStage(name, true)
	stop := r.Timer(name).Start()
	return func() {
		stop()
		r.notifyStage(name, false)
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named stage timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.RLock()
	t := r.timers[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.timers[name]; t == nil {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Reset zeroes every registered metric in place, preserving handles and
// registered names (see the package comment).
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

var defaultRegistry = NewRegistry()

// Default is the process-wide registry every instrumented package
// records into; cmd/routelab snapshots it for -metrics-json.
func Default() *Registry { return defaultRegistry }

// Add bumps a counter in the default registry.
func Add(name string, delta int64) { defaultRegistry.Counter(name).Add(delta) }

// Inc bumps a counter in the default registry by one.
func Inc(name string) { defaultRegistry.Counter(name).Inc() }

// SetGauge sets a gauge in the default registry.
func SetGauge(name string, v float64) { defaultRegistry.Gauge(name).Set(v) }

// Observe records one duration on a stage timer in the default registry.
func Observe(name string, d time.Duration) { defaultRegistry.Timer(name).Observe(d) }

// StartStage starts timing a named stage on the default registry,
// notifying any registered stage listeners:
//
//	defer obs.StartStage("scenario/topology")()
func StartStage(name string) func() { return defaultRegistry.StartStage(name) }

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
