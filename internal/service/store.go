package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"routelab/internal/obs"
	"routelab/internal/parallel"
	"routelab/internal/scenario"
	"routelab/internal/spec"
)

// ErrUnknownScenario reports a fleet request for an id no spec was
// registered under; the Fleet maps it to 404.
var ErrUnknownScenario = errors.New("unknown scenario id")

// StoreConfig sizes the scenario store.
type StoreConfig struct {
	// MaxScenarioBytes is the residency budget: each sealed (built)
	// tenant's build-time SizeBytes estimate is charged against it, and
	// the least-recently-served tenants are evicted (and rebuilt on
	// demand) while the total exceeds it. <= 0 selects the default
	// (1 GiB: about ninety test-scale tenants, or one paper-scale
	// world). The most recent tenant is never evicted, so one
	// over-budget world serves rather than thrashes.
	MaxScenarioBytes int64
	// MaxQueuedBuilds bounds the build gate's queue. Builds are the
	// expensive multi-core phase, so one runs at a time and requests for
	// distinct cold scenarios queue; a cold-scenario request arriving
	// while MaxQueuedBuilds builds are already waiting is shed with
	// 429/Retry-After instead of joining the line. 0 disables shedding
	// (builds queue until the requester's deadline).
	MaxQueuedBuilds int
	// CacheSize bounds the fleet-wide response cache (entries) shared by
	// every tenant; <= 0 selects the default (256). Every tenant reaches
	// it through its own partition, which is purged on eviction.
	CacheSize int
	// Tenant configures each per-scenario Server (admission gate,
	// request deadline).
	Tenant Config
	// Logf receives scenario build progress; nil silences it.
	Logf scenario.Logf
}

// Store is the multi-tenant scenario registry behind the Fleet: specs
// are registered up front (cheap — compile and validate only), sealed
// scenarios are built on first use, kept in an LRU, and rebuilt
// deterministically after eviction. Concurrent requests for the same
// cold id coalesce into a single build (obs: service.scenario.builds
// counts real builds, .hits serves from the LRU, .evictions drops).
type Store struct {
	cfg       StoreConfig
	buildGate *parallel.Gate
	cache     *cache // shared across tenants, one partition each

	mu            sync.Mutex
	sources       map[string]*source
	order         *list.List               // built ids, front = most recently served
	builtIdx      map[string]*list.Element // id -> element; value *builtEntry
	building      map[string]*buildCall
	progress      map[string]*buildProgress // live/failed build trackers by id
	residentBytes int64                     // sum of resident builtEntry.bytes

	// buildHook, when set (tests only), runs inside build while the
	// build gate is held — a seam the saturation suite uses to hold the
	// gate deterministically.
	buildHook func(id string)
}

// source is one registered spec: identity plus the compiled, validated
// Config it builds from.
type source struct {
	info ScenarioInfo // Built is filled in at read time
	cfg  scenario.Config
}

type builtEntry struct {
	id     string
	tenant *Server
	bytes  int64 // the tenant's SizeBytes estimate, charged to the byte budget
}

type buildCall struct {
	done   chan struct{}
	tenant *Server
	err    error
}

// NewStore assembles an empty store; register scenarios with Register
// or RegisterDir.
func NewStore(cfg StoreConfig) *Store {
	if cfg.MaxScenarioBytes <= 0 {
		cfg.MaxScenarioBytes = 1 << 30
	}
	return &Store{
		cfg:       cfg,
		buildGate: parallel.NewGate(1),
		cache:     newCache(cfg.CacheSize),
		sources:   make(map[string]*source),
		order:     list.New(),
		builtIdx:  make(map[string]*list.Element),
		building:  make(map[string]*buildCall),
		progress:  make(map[string]*buildProgress),
	}
}

// Register admits one compiled spec expansion under its spec name.
// Registration is cheap — the sealed scenario is built on first use.
// A duplicate id is an error: two different worlds under one id would
// make /v1/scenarios/{id} responses depend on registration order.
func (st *Store) Register(exp *spec.Expansion, origin string) error {
	if exp.Name == "" {
		return fmt.Errorf("service: scenario spec has no name")
	}
	src := &source{
		info: ScenarioInfo{
			ID:          exp.Name,
			Description: exp.Description,
			Profile:     exp.Profile,
			Overlays:    exp.Overlays,
			Origin:      origin,
			Seed:        exp.Config.Seed,
			Scale:       exp.Config.Topology.Scale,
		},
		cfg: exp.Config,
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.sources[exp.Name]; ok {
		return fmt.Errorf("service: scenario %q already registered", exp.Name)
	}
	st.sources[exp.Name] = src
	return nil
}

// RegisterDir registers every spec document (*.yaml, *.yml, *.json) at
// the top level of dir — the -scenario-dir boot path. Subdirectories
// (e.g. a goldens directory next to a corpus) are ignored. Returns how
// many scenarios were registered.
func (st *Store) RegisterDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch strings.ToLower(filepath.Ext(e.Name())) {
		case ".yaml", ".yml", ".json":
		default:
			continue
		}
		path := filepath.Join(dir, e.Name())
		exp, err := spec.Expand(path, nil)
		if err != nil {
			return n, fmt.Errorf("service: %s: %w", path, err)
		}
		if err := st.Register(exp, filepath.ToSlash(path)); err != nil {
			return n, err
		}
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("service: no scenario specs found in %s", dir)
	}
	return n, nil
}

// IDs returns every registered scenario id, sorted.
func (st *Store) IDs() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	ids := make([]string, 0, len(st.sources))
	for id := range st.sources {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Infos returns every registered scenario's info, sorted by id, with
// the Built flag reflecting LRU residency at call time.
func (st *Store) Infos() []ScenarioInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	infos := make([]ScenarioInfo, 0, len(st.sources))
	for id := range st.sources {
		info, _ := st.info(id)
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// Info returns one scenario's info.
func (st *Store) Info(id string) (ScenarioInfo, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.info(id)
}

// info fills in one scenario's residency at read time. Caller holds
// st.mu.
func (st *Store) info(id string) (ScenarioInfo, error) {
	src, ok := st.sources[id]
	if !ok {
		return ScenarioInfo{}, fmt.Errorf("%w: %q", ErrUnknownScenario, id)
	}
	info := src.info
	if el, ok := st.builtIdx[id]; ok {
		info.Built = true
		info.SizeBytes = el.Value.(*builtEntry).bytes
	}
	return info, nil
}

// BuiltLen reports how many sealed scenarios are resident.
func (st *Store) BuiltLen() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.order.Len()
}

// Close does nothing: the store runs no goroutine and holds nothing but
// memory, so there is nothing to stop or join. It exists because
// bench/serve.go calls it and bench/ only changes in a benchmark PR
// (ROADMAP: drop it together with those two calls).
func (st *Store) Close() {}

// Get returns the tenant serving id, building the sealed scenario on
// demand. Concurrent calls for the same cold id share one build
// (singleflight); calls for a resident id are LRU hits. The ctx bounds
// this caller's wait — in the build-gate queue or on another caller's
// build — not the build itself, which always runs to completion so the
// result is kept for the next request.
func (st *Store) Get(ctx context.Context, id string) (*Server, error) {
	for {
		st.mu.Lock()
		src, ok := st.sources[id]
		if !ok {
			st.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownScenario, id)
		}
		if el, ok := st.builtIdx[id]; ok {
			st.order.MoveToFront(el)
			tenant := el.Value.(*builtEntry).tenant
			st.mu.Unlock()
			obs.Inc("service.scenario.hits")
			return tenant, nil
		}
		if bc, ok := st.building[id]; ok {
			st.mu.Unlock()
			select {
			case <-bc.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if bc.err == nil {
				return bc.tenant, nil
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// The build died on ITS caller's context; ours is live, so
			// retry — the same recovery the response cache uses.
			if !ctxDied(bc.err) {
				return nil, bc.err
			}
			continue
		}
		bc := &buildCall{done: make(chan struct{})}
		st.building[id] = bc
		st.mu.Unlock()

		bc.tenant, bc.err = st.build(ctx, id, src)
		st.mu.Lock()
		delete(st.building, id)
		if bc.err == nil {
			st.insert(id, bc.tenant)
		}
		st.mu.Unlock()
		close(bc.done)
		return bc.tenant, bc.err
	}
}

// build seals one scenario and wraps it in a tenant. The build gate
// runs one at a time; the requester's ctx only governs its
// place in the queue (scenario.Build is not cancelable, and a finished
// build is always worth keeping). When the gate's queue is already at
// MaxQueuedBuilds the build is shed instead of queued — the
// OverloadError propagates to every waiter coalesced on this id, and
// each writes (and counts) its own 429.
func (st *Store) build(ctx context.Context, id string, src *source) (tenant *Server, err error) {
	if max := st.cfg.MaxQueuedBuilds; max > 0 {
		if q := st.buildGate.Waiting(); q >= max {
			return nil, &OverloadError{What: "build", Queue: q, Limit: max, RetryAfter: buildRetryAfter(q)}
		}
	}
	if err := st.buildGate.Enter(ctx); err != nil {
		return nil, err
	}
	defer st.buildGate.Leave()

	// Track this build for GET /v1/scenarios/{id}/build.
	bp := newBuildProgress()
	st.mu.Lock()
	st.progress[id] = bp
	st.mu.Unlock()

	defer obs.StartStage("service/scenario-build")()
	// A build that fails — or panics: recoverAs, deferred after this,
	// runs before it — leaves a failed tracker and retires the call in
	// Get like any other, so the id can be asked for again.
	defer func() {
		if err != nil {
			bp.mu.Lock()
			bp.state = BuildFailed
			bp.lastErr = err.Error()
			bp.mu.Unlock()
			err = fmt.Errorf("service: build scenario %q: %w", id, err)
		}
	}()
	defer recoverAs(&err, "building scenario", id)
	if st.buildHook != nil {
		st.buildHook(id)
	}
	obs.Inc("service.scenario.builds")
	// The build's own Logf callback moves its tracker from phase to phase.
	s, err := scenario.Build(src.cfg, func(phase int, format string, args ...any) {
		bp.at(phase)
		if st.cfg.Logf != nil {
			st.cfg.Logf(phase, format, args...)
		}
	})
	if err != nil {
		return nil, err
	}
	tenant = newTenant(s, st.cfg.Tenant, st.cache.partition(id))
	// Built (insert will drop the tracker; this covers the window
	// between returning and the caller's insert under st.mu).
	bp.mu.Lock()
	bp.state = BuildBuilt
	bp.mu.Unlock()
	return tenant, nil
}

// BuildProgress reports the build state of one registered scenario
// without touching the store's Get path — polling progress must never
// trigger or wait on a build. Residency wins (built), then a live or
// failed tracker, then pending.
func (st *Store) BuildProgress(id string) (BuildProgressData, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.sources[id]; !ok {
		return BuildProgressData{}, fmt.Errorf("%w: %q", ErrUnknownScenario, id)
	}
	if _, ok := st.builtIdx[id]; ok {
		return BuildProgressData{
			ID:         id,
			State:      BuildBuilt,
			Percent:    100,
			PhasesDone: len(scenario.Phases),
			Phases:     len(scenario.Phases),
		}, nil
	}
	if bp, ok := st.progress[id]; ok {
		return bp.snapshot(id), nil
	}
	return BuildProgressData{ID: id, State: BuildPending, Phases: len(scenario.Phases)}, nil
}

// ResidentBytes reports the store's current byte-budget charge: the
// sum of every resident tenant's SizeBytes estimate.
func (st *Store) ResidentBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.residentBytes
}

// insert records a freshly-built tenant and evicts the
// least-recently-served ones while the resident bytes exceed the
// budget. Caller holds st.mu.
func (st *Store) insert(id string, tenant *Server) {
	delete(st.progress, id) // residency now answers BuildProgress
	e := &builtEntry{id: id, tenant: tenant, bytes: tenant.SizeBytes()}
	st.builtIdx[id] = st.order.PushFront(e)
	st.residentBytes += e.bytes
	// Never evict the sole resident: one over-budget world should serve
	// (and report its true cost) rather than thrash forever.
	for st.residentBytes > st.cfg.MaxScenarioBytes && st.order.Len() > 1 {
		st.evictOldest()
	}
	obs.SetGauge("service.scenario.built", float64(st.order.Len()))
	obs.SetGauge("service.scenario.resident_bytes", float64(st.residentBytes))
}

// evictOldest drops the least-recently-served tenant. Caller holds
// st.mu.
func (st *Store) evictOldest() {
	el := st.order.Back()
	st.order.Remove(el)
	evicted := el.Value.(*builtEntry)
	delete(st.builtIdx, evicted.id)
	st.residentBytes -= evicted.bytes
	// Purge the evicted tenant's cache partition: responses are
	// deterministic, so dropping them only costs recomputation, and
	// keeping them would hold the evicted world's bodies in memory.
	st.cache.purge(evicted.id)
	obs.Inc("service.scenario.evictions")
}
