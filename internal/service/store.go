package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
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
}

// Store is the multi-tenant scenario registry behind the Fleet: specs
// are registered up front (cheap — compile and validate only), sealed
// scenarios are built on first use, kept in an lru costed by accounted
// bytes, and rebuilt deterministically after eviction. Concurrent
// requests for the same cold id coalesce into a single build.
//
// A store keeps one obs record (Record), a child of the process
// registry. Each build, and later work on its scenario, records on a
// child of it; the store's own metrics and its fleet's requests
// (handle) on it: the service/scenario-build stage, the lrus' gauges,
// and service.scenario.builds (real builds), .hits (served from the
// lru) and .evictions (drops). Two stores in one process never see each
// other's records; the process registry sees the sums.
type Store struct {
	cfg       StoreConfig
	rec       *obs.Registry // the store's record, a child of the process registry
	hits      *obs.Counter  // service.scenario.hits on rec: every request's Get bumps it
	buildGate *parallel.Gate
	cache     *cache                // shared across tenants, one partition each
	tenants   *lru[string, *Server] // resident sealed scenarios by id

	mu      sync.Mutex // guards sources and each source's latest build
	sources map[string]*source

	// buildHook, when set (tests only), runs inside build while the
	// build gate is held — a seam the saturation suite uses to hold the
	// gate deterministically.
	buildHook func(id string)
}

// source is one registered spec: identity plus the compiled, validated
// Config it builds from, and the record and error of its latest
// admitted build, which BuildProgress reads. rec is nil until a build is
// admitted, and again once a build after a successful one starts.
type source struct {
	info ScenarioInfo // Built is filled in at read time
	cfg  scenario.Config
	rec  *obs.Registry
	err  error
}

// NewStore assembles an empty store; register scenarios with Register
// or RegisterDir.
func NewStore(cfg StoreConfig) *Store {
	if cfg.MaxScenarioBytes <= 0 {
		cfg.MaxScenarioBytes = 1 << 30
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	rec := obs.NewRegistry(obs.Default())
	st := &Store{
		cfg:       cfg,
		rec:       rec,
		hits:      rec.Counter("service.scenario.hits"),
		buildGate: parallel.NewGate(1),
		cache:     newLRU[cacheKey](int64(cfg.CacheSize), func([]byte) int64 { return 1 }, rec.Gauge("service.cache.entries"), nil, nil),
		sources:   make(map[string]*source),
	}
	st.tenants = newLRU(cfg.MaxScenarioBytes, (*Server).SizeBytes,
		rec.Gauge("service.scenario.built"), rec.Gauge("service.scenario.resident_bytes"), st.evicted)
	return st
}

// Record returns the store's obs record: listen on it to hear this
// store's builds begin their phases, its requests' service/<name>
// stages and the stages of work on its tenants, and no one else's.
func (st *Store) Record() *obs.Registry { return st.rec }

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

// RegisterDir registers every spec document spec.Files lists in dir —
// the -scenario-dir boot path. Returns how many scenarios were
// registered.
func (st *Store) RegisterDir(dir string) (int, error) {
	paths, err := spec.Files(dir)
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("service: no scenario specs found in %s", dir)
	}
	for n, path := range paths {
		exp, err := spec.Expand(path, nil)
		if err != nil {
			return n, fmt.Errorf("service: %s: %w", path, err)
		}
		if err := st.Register(exp, filepath.ToSlash(path)); err != nil {
			return n, err
		}
	}
	return len(paths), nil
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
	if tenant, ok := st.tenants.peek(id); ok {
		info.Built = true
		info.SizeBytes = tenant.SizeBytes()
	}
	return info, nil
}

// Close does nothing: the store runs no goroutine and holds nothing but
// memory, so there is nothing to stop or join. It exists because
// bench/serve.go calls it and bench/ only changes in a benchmark PR
// (ROADMAP: drop it together with those two calls).
func (st *Store) Close() {}

// Get returns the tenant serving id, building the sealed scenario on
// demand through the tenants lru: concurrent calls for the same cold id
// share one build, calls for a resident id are hits. The ctx bounds
// this caller's wait — in the build-gate queue or on another caller's
// build — not the build itself, which always runs to completion so the
// result is kept for the next request.
func (st *Store) Get(ctx context.Context, id string) (*Server, error) {
	tenant, hit, err := st.tenants.do(ctx, id, func() (*Server, error) { return st.build(ctx, id) })
	if hit {
		st.hits.Inc()
	}
	return tenant, err
}

// build seals the scenario registered as id into a tenant, the build
// recording on a child of the store's record. The build gate runs one
// at a time; the requester's ctx only governs its place in the queue
// (scenario.Build is not cancelable, and a finished build is always
// worth keeping). When the gate's queue is already at MaxQueuedBuilds
// the build is shed instead of queued — the OverloadError propagates to
// every waiter coalesced on this id, and each writes (and counts) its
// own 429.
func (st *Store) build(ctx context.Context, id string) (tenant *Server, err error) {
	st.mu.Lock()
	src, ok := st.sources[id]
	if ok && src.err == nil {
		// The last build succeeded, so its tenant was evicted: this
		// build is pending until admitted. A failed one stays failed.
		src.rec = nil
	}
	st.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownScenario, id)
	}
	if err := admit(ctx, st.buildGate, "build", st.cfg.MaxQueuedBuilds, st.buildRetryAfter); err != nil {
		return nil, err
	}
	defer st.buildGate.Leave()

	// The build's record is its progress (BuildProgress).
	rec := obs.NewRegistry(st.rec)
	st.mu.Lock()
	src.rec, src.err = rec, nil
	st.mu.Unlock()

	defer st.rec.StartStage("service/scenario-build")()
	// A build that fails — or panics: recoverAs, deferred after this,
	// runs before it — leaves its error for BuildProgress and retires
	// the flight in Get like any other, so the id can be asked for again.
	defer func() {
		if err != nil {
			st.mu.Lock()
			src.err = err
			st.mu.Unlock()
			err = fmt.Errorf("service: build scenario %q: %w", id, err)
		}
	}()
	defer recoverAs(&err, "building scenario", id)
	if st.buildHook != nil {
		st.buildHook(id)
	}
	st.rec.Counter("service.scenario.builds").Inc()
	s, err := scenario.Build(src.cfg, rec)
	if err != nil {
		return nil, err
	}
	return newTenant(s, st.cfg.Tenant, partition{c: st.cache, tenant: id}), nil
}

// BuildProgress reports the build state of one registered scenario
// without touching the store's Get path — polling progress must never
// trigger or wait on a build. Residency wins (built); otherwise the
// latest admitted build is failed if it errored, building while its
// flight runs, and pending once its tenant was evicted, as is a
// scenario no build was admitted for.
func (st *Store) BuildProgress(id string) (BuildProgressData, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	src, ok := st.sources[id]
	if !ok {
		return BuildProgressData{}, fmt.Errorf("%w: %q", ErrUnknownScenario, id)
	}
	d := BuildProgressData{ID: id, State: BuildPending, Phases: len(scenario.Phases)}
	// The flight before residency: a flight ends in the same step as
	// its tenant's insert, so one that ends between the reads is built.
	building := st.tenants.inFlight(id)
	if _, ok := st.tenants.peek(id); ok {
		d.State, d.Percent, d.PhasesDone = BuildBuilt, 100, d.Phases
		return d, nil
	}
	switch {
	case src.rec == nil:
		return d, nil
	case src.err != nil:
		d.State, d.Error = BuildFailed, src.err.Error()
	case building:
		d.State = BuildBuilding
	default: // built, then evicted
		return d, nil
	}
	// The running phase is the last of scenario.Phases begun on the
	// build's record (a stage's timer is listed from its begin; Build
	// begins them in order).
	phase := -1
	for _, stage := range src.rec.Snapshot().Stages {
		phase = max(phase, slices.Index(scenario.Phases, stage.Name))
	}
	if phase >= 0 {
		d.Phase, d.PhasesDone = scenario.Phases[phase], phase
	}
	if d.State == BuildBuilding {
		d.Percent = percentDone(phase)
	}
	return d, nil
}

// ResidentBytes reports the store's current byte-budget charge: the
// sum of every resident tenant's SizeBytes estimate.
func (st *Store) ResidentBytes() int64 {
	_, bytes := st.tenants.size()
	return bytes
}

// evicted runs for each tenant an insert pushed out of the byte budget.
// It purges the tenant's cache partition: responses are deterministic,
// so dropping them only costs recomputation, and keeping them would
// hold the evicted world's bodies in memory. A computation still in
// flight on the evicted tenant completes and re-inserts its body, which
// is harmless for the same reason.
func (st *Store) evicted(id string, _ *Server) {
	st.cache.purge(func(k cacheKey) bool { return k.tenant == id })
	st.rec.Counter("service.scenario.evictions").Inc()
}
