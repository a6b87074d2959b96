// Package service implements beerd, the BEER job server: an HTTP/JSON API
// for submitting long-running recovery and simulation jobs, polling their
// per-stage progress, cancelling them, fetching results, and browsing the
// registry of recovered ECC functions.
//
// The server is a thin layer over the public Pipeline API: every job runs
// under its own context.Context (DELETE cancels it; server shutdown cancels
// all of them) on a single shared parallel experiment engine, so concurrent
// jobs share one worker pool and one profile cache — the paper's §6.3
// many-chips-one-lab workflow exposed as a service. Progress arrives through
// the pipeline's event stream (repro.WithProgress) and is folded into
// monotonic per-stage counters that status polls read.
//
// Every server also owns a result store (internal/store; in-memory by
// default, file-backed via WithStore and `beerd -store`): jobs persist as
// they run and finish, so a restarted server replays completed jobs and
// resumes interrupted ones, and every successful recovery lands in a
// content-addressed registry keyed by the canonical profile hash
// (core.Profile.Hash). The registry doubles as a solver cache — a submission
// whose miscorrection profile was solved before replays the recorded result
// with zero SAT invocations — and is browsable at GET /codes, the paper's §7
// "BEER database". docs/API.md documents the wire format of every endpoint.
package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/store"
)

// State is a job's lifecycle state.
type State string

const (
	// StateRunning marks a job whose pipeline is executing.
	StateRunning State = "running"
	// StateSucceeded marks a finished job with a result available.
	StateSucceeded State = "succeeded"
	// StateFailed marks a finished job whose pipeline returned an error.
	StateFailed State = "failed"
	// StateCanceled marks a job stopped by DELETE or server shutdown.
	StateCanceled State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool { return s != StateRunning }

// Server owns the job table, the executor and the result store. Construct
// with New; serve Handler(); Drain stops accepting jobs and waits for
// in-flight ones; Close cancels every running job and waits for their
// goroutines to exit.
type Server struct {
	engine   *repro.Engine
	executor Executor
	store    *store.Store
	tier     repro.SolveCache
	solve    solveCounter
	maxJobs  int
	// solverOpts are extra pipeline options (external/portfolio SAT
	// backend selection) appended to every locally-executed recovery job;
	// see WithSolverOptions.
	solverOpts []repro.Option
	// hub and metrics are the observability plane: hub (never nil after
	// New) carries the metrics registry behind GET /metrics, the span ring
	// buffer behind GET /debug/traces and the structured logger; metrics
	// holds the service-layer instruments (see obs.go).
	hub     *obs.Hub
	metrics *serverMetrics

	// mu is the admission lock: it serializes submission bookkeeping
	// (sequence numbers, the running count, the drain flag, the in-flight
	// dedupe index, the order listing and the WaitGroup Add/shutdown race).
	// Job lookups do NOT take it — the job table itself is sharded (see
	// jobTable), so the status-poll hot path never contends with admissions.
	mu       sync.Mutex
	order    []string // submission order, for stable listings
	seq      int
	running  int // jobs currently executing (admission control)
	draining bool
	// inflight single-flights concurrent identical submissions: dedupe key
	// (see dedupe.go) → the running job executing that spec. An entry lives
	// from admission until the job's goroutine finishes (or the job is
	// cancelled), so N simultaneous identical submissions share one
	// execution and one solver invocation, and each receives the same job.
	inflight map[string]*job

	table jobTable

	baseCtx  context.Context
	shutdown context.CancelFunc
	wg       sync.WaitGroup
}

// jobShards is the job-table stripe count. Shard selection is a hash of the
// job ID, so the hot GET /jobs/{id} path locks 1/16th of the table instead
// of a global mutex shared with submissions and completions.
const jobShards = 16

// jobTable is the sharded job map. Reads (get) take a shard's RLock;
// inserts take its write lock. Membership never shrinks — jobs are retained
// for status/result reads until the process exits, matching the previous
// single-map behavior.
type jobTable struct {
	shards [jobShards]struct {
		mu sync.RWMutex
		m  map[string]*job
	}
}

func (t *jobTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[string]*job)
	}
}

// shardOf picks the stripe for a job ID (FNV-1a).
func (t *jobTable) shardOf(id string) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % jobShards)
}

func (t *jobTable) get(id string) (*job, bool) {
	sh := &t.shards[t.shardOf(id)]
	sh.mu.RLock()
	j, ok := sh.m[id]
	sh.mu.RUnlock()
	return j, ok
}

func (t *jobTable) put(j *job) {
	sh := &t.shards[t.shardOf(j.id)]
	sh.mu.Lock()
	sh.m[j.id] = j
	sh.mu.Unlock()
}

// Option configures a Server at construction.
type Option func(*Server)

// WithExecutor routes job execution through a custom Executor instead of
// the local engine — how a cluster coordinator turns the same HTTP surface
// into a dispatching front end (internal/cluster.Coordinator).
func WithExecutor(x Executor) Option { return func(s *Server) { s.executor = x } }

// WithMaxConcurrent caps how many jobs may execute at once (0 = unlimited).
// A submission over the cap is rejected with a SaturatedError, which the
// HTTP handler maps to 429 + Retry-After — the backpressure signal a
// cluster coordinator spills and backs off on. Jobs resumed from the store
// at startup bypass the cap: they were admitted before the restart.
func WithMaxConcurrent(n int) Option { return func(s *Server) { s.maxJobs = n } }

// WithSolveCacheTier adds a second, typically remote, solve-cache tier
// consulted when the local store registry misses. A cluster worker points
// this at the coordinator's registry (cluster.RemoteCache), so a profile
// solved anywhere in the fleet is never solved again — hits are pulled into
// the local store, and fresh local solves are offered to the tier (the push
// half of registry sync).
func WithSolveCacheTier(c repro.SolveCache) Option { return func(s *Server) { s.tier = c } }

// WithSolverOptions appends extra pipeline options — typically
// repro.WithExternalSolver, repro.WithPortfolioSolver or a custom
// repro.WithSolverBackend factory — to every recovery job this server
// executes locally (what `beerd -solver`/`-portfolio` wires up). The
// options apply only to local execution: a cluster coordinator dispatches
// specs, and each worker's own WithSolverOptions decides its backend.
func WithSolverOptions(opts ...repro.Option) Option {
	return func(s *Server) { s.solverOpts = append(s.solverOpts, opts...) }
}

// WithStore backs the server with an existing result store. The default is
// a store over an in-memory backend: jobs then dedupe and replay within one
// process but do not survive a restart. Pass a store over a FileBackend
// (what `beerd -store <dir>` does) for durability — New then replays the
// store's completed jobs into the job table and resumes its interrupted
// ones.
func WithStore(st *store.Store) Option { return func(s *Server) { s.store = st } }

// New builds a Server multiplexing jobs onto the given engine (nil = the
// process-wide default engine). If the configured store already holds job
// records (a file-backed store from a previous run), New replays terminal
// jobs — their statuses and results are immediately readable — and restarts
// interrupted ones from their persisted specs.
func New(engine *repro.Engine, opts ...Option) *Server {
	if engine == nil {
		engine = repro.DefaultEngine()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		engine:   engine,
		inflight: make(map[string]*job),
		baseCtx:  ctx,
		shutdown: cancel,
	}
	s.table.init()
	for _, opt := range opts {
		opt(s)
	}
	if s.hub == nil {
		s.hub = obs.NewHub(nil)
	}
	s.metrics = newServerMetrics(s)
	if s.store == nil {
		s.store = store.New(store.NewMemBackend())
	}
	s.store.Instrument(func(op string, seconds float64) {
		s.metrics.storeSeconds.With(op).Observe(seconds)
	})
	if s.executor == nil {
		// Every locally-executed recovery shares one discovery cache: repeat
		// submissions of the same chip model skip the §5.1 read sweeps, which
		// dominate the request path for small simulated chips. Spec-derived
		// and deployment options are appended after and therefore win.
		extra := append([]repro.Option{repro.WithDiscoveryCache(repro.NewDiscoveryCache(64))}, s.solverOpts...)
		s.executor = localExecutor{engine: engine, extraOpts: extra, tracer: s.hub.Tracer}
	}
	s.recoverPersistedJobs()
	return s
}

// Executor returns the executor jobs run on.
func (s *Server) Executor() Executor { return s.executor }

// Store returns the server's result store (never nil).
func (s *Server) Store() *store.Store { return s.store }

// SolveCounters reports how many times recovery jobs reached the solve
// stage and how many of those were served from the content-addressed
// registry without invoking the SAT solver. invocations counts actual
// solver runs: lookups minus hits.
func (s *Server) SolveCounters() (invocations, cacheHits int64) {
	return s.solve.counters()
}

// solveCounter tallies solve-stage traffic across all jobs, plus the
// cumulative SAT-engine work of every completed recovery (the /healthz
// "solver" block).
type solveCounter struct {
	mu            sync.Mutex
	lookups, hits int64
	stats         SolverStats
	// noisyJobs and entriesDropped tally confidence-weighted recoveries:
	// how many jobs ran the drop-k solver and how many profile entries it
	// retracted in total (the /healthz "noisy_recoveries" and
	// "entries_dropped" counters).
	noisyJobs      int64
	entriesDropped int64
}

func (c *solveCounter) counters() (invocations, cacheHits int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookups - c.hits, c.hits
}

// addStats folds one finished recovery's solver counters into the totals.
// Portfolio competitor records accumulate by name, so the /healthz
// "portfolio" block reports fleet-lifetime win/loss/timeout tallies even
// though each job builds its own racing backend.
func (c *solveCounter) addStats(s *SolverStats) {
	if s == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Conflicts += s.Conflicts
	c.stats.Propagations += s.Propagations
	c.stats.Learned += s.Learned
	c.stats.Restarts += s.Restarts
	c.stats.PatternsSkipped += s.PatternsSkipped
	c.stats.Races += s.Races
	for _, comp := range s.Competitors {
		found := false
		for i := range c.stats.Competitors {
			if c.stats.Competitors[i].Name == comp.Name {
				c.stats.Competitors[i].Wins += comp.Wins
				c.stats.Competitors[i].Losses += comp.Losses
				c.stats.Competitors[i].Timeouts += comp.Timeouts
				c.stats.Competitors[i].Errors += comp.Errors
				found = true
				break
			}
		}
		if !found {
			c.stats.Competitors = append(c.stats.Competitors, comp)
		}
	}
}

// addNoise folds one finished noisy recovery's drop-k outcome into the
// totals.
func (c *solveCounter) addNoise(n *NoiseReport) {
	if n == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noisyJobs++
	c.entriesDropped += int64(n.Dropped)
}

// noisyTotals returns the accumulated drop-k outcomes.
func (c *solveCounter) noisyTotals() (noisyJobs, entriesDropped int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.noisyJobs, c.entriesDropped
}

// totals returns the accumulated solver work (competitor records deep
// copied — addStats keeps mutating the originals).
func (c *solveCounter) totals() SolverStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.Competitors = append([]CompetitorReport(nil), c.stats.Competitors...)
	return out
}

// countingCache wraps a job's store-backed solve cache with the server-wide
// counters. Every recovery job gets one, so a cache hit is observable as
// "zero new solver invocations" on /healthz and SolveCounters.
type countingCache struct {
	counter *solveCounter
	metrics *serverMetrics
	inner   repro.SolveCache
}

func (c countingCache) Lookup(p *repro.Profile) (*repro.SolveResult, bool) {
	res, ok := c.inner.Lookup(p)
	c.counter.mu.Lock()
	c.counter.lookups++
	if ok {
		c.counter.hits++
	}
	c.counter.mu.Unlock()
	if c.metrics != nil {
		c.metrics.cacheLookups.Inc()
		if ok {
			c.metrics.cacheHits.Inc()
		}
	}
	return res, ok
}

func (c countingCache) Store(p *repro.Profile, res *repro.SolveResult) { c.inner.Store(p, res) }

// Engine returns the shared experiment engine jobs run on.
func (s *Server) Engine() *repro.Engine { return s.engine }

// Drain gracefully quiesces the server: new submissions are rejected with
// ErrDraining (503 on the HTTP surface) while status, results and the code
// registry stay readable, and Drain blocks until every in-flight job has
// finished — or ctx expires, in which case the still-running jobs are left
// running (their count is in the error) for Close to cancel and persist as
// resumable. This is what `beerd` does on SIGTERM/SIGINT before exiting.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		n := s.running
		s.mu.Unlock()
		return fmt.Errorf("drain: %d jobs still running: %w", n, ctx.Err())
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// RunningJobs counts the jobs currently executing (what admission control
// compares against the WithMaxConcurrent cap, and what a cluster worker
// reports in its heartbeats).
func (s *Server) RunningJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// MaxConcurrent returns the admission cap (0 = unlimited).
func (s *Server) MaxConcurrent() int { return s.maxJobs }

// Close cancels every running job and blocks until all job goroutines have
// exited. The HTTP handler stays functional afterwards (status and results
// remain readable); new submissions are rejected.
func (s *Server) Close() {
	// Cancel under s.mu: submit checks baseCtx and does wg.Add while
	// holding the same lock, so after this section no new job can slip its
	// Add past our Wait.
	s.mu.Lock()
	s.shutdown()
	s.mu.Unlock()
	s.wg.Wait()
}

// job is one submitted unit of work.
type job struct {
	id      string
	spec    JobSpec
	runCtx  context.Context
	cancel  context.CancelFunc
	created time.Time
	// replayed marks a terminal job restored from the store on startup (its
	// pipeline did not run in this process).
	replayed bool
	// span is the job's root trace span, opened at submission (nil for
	// resumed/replayed jobs — their submitting request is long gone).
	span *obs.Span
	// dedupeKey is the spec's single-flight identity (see dedupe.go). Set
	// at admission; the server's inflight entry under it is released when
	// the job finishes or is user-cancelled.
	dedupeKey string

	progress progressTracker

	// bodyMu guards body, the cached serialized JobStatus response. Status
	// polls re-serve these bytes until a progress event or state transition
	// invalidates them (invalidateStatus), so a hot poll loop stops paying
	// the monotonic merge + JSON marshal per request. The lock is held
	// across a rebuild: concurrent pollers of one job coalesce onto a
	// single marshal, and an invalidation during a rebuild blocks until the
	// (now possibly stale) bytes are stored, then nils them — a reader can
	// serve a snapshot at most one event old, never a regressed one.
	bodyMu sync.Mutex
	body   []byte

	// watchMu guards watchers: one signal channel per open SSE stream,
	// poked (non-blocking) on every progress report and on the terminal
	// transition. See Server.handleEvents.
	watchMu  sync.Mutex
	watchers map[chan struct{}]struct{}

	mu       sync.Mutex
	state    State
	errText  string
	started  time.Time
	finished time.Time
	result   *JobResult
	// userCanceled marks a DELETE-initiated cancellation. It decides how a
	// cancelled job persists: DELETE is terminal ("canceled", never
	// resumes), while shutdown-initiated cancellation persists as resumable.
	userCanceled bool

	// persistMu serializes snapshot+write cycles against the store, so a
	// DELETE handler's cancel-intent write cannot interleave with the job
	// goroutine's terminal persist and clobber a succeeded record with a
	// stale "canceled" one. Always acquired before (never while holding)
	// j.mu.
	persistMu sync.Mutex
}

// watch registers an SSE stream's wakeup channel; the returned cancel
// removes it. The channel has capacity 1: a poke while one is pending
// coalesces, which is fine — watchers re-read the full status on wake.
func (j *job) watch() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	j.watchMu.Lock()
	if j.watchers == nil {
		j.watchers = make(map[chan struct{}]struct{})
	}
	j.watchers[ch] = struct{}{}
	j.watchMu.Unlock()
	return ch, func() {
		j.watchMu.Lock()
		delete(j.watchers, ch)
		j.watchMu.Unlock()
	}
}

// notify pokes every open watcher without blocking.
func (j *job) notify() {
	j.watchMu.Lock()
	for ch := range j.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	j.watchMu.Unlock()
}

// markUserCanceled records that the job's cancellation was requested via
// DELETE rather than server shutdown.
func (j *job) markUserCanceled() {
	j.mu.Lock()
	j.userCanceled = true
	j.mu.Unlock()
}

// invalidateStatus drops the cached status body; the next poll rebuilds it.
func (j *job) invalidateStatus() {
	j.bodyMu.Lock()
	j.body = nil
	j.bodyMu.Unlock()
}

func (j *job) snapshotState() (State, string, time.Time, time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errText, j.started, j.finished
}

func (j *job) finish(state State, err error, result *JobResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	if err != nil {
		j.errText = err.Error()
	}
	j.result = result
	j.finished = time.Now()
}

// ErrDraining rejects submissions while the server drains for shutdown;
// the HTTP handler maps it to 503 + Retry-After.
var ErrDraining = errors.New("server is draining")

// ErrShuttingDown rejects submissions after Close began.
var ErrShuttingDown = errors.New("server is shutting down")

// SaturatedError rejects a submission over the WithMaxConcurrent cap; the
// HTTP handler maps it to 429 + Retry-After.
type SaturatedError struct {
	Limit, Running int
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("saturated: %d of %d job slots in use", e.Running, e.Limit)
}

// RetryAfter suggests how long a client should wait before resubmitting.
// There is no queue to measure, so the hint is a flat nudge; the coordinator
// treats it as a floor and spills to another worker instead of waiting long.
func (e *SaturatedError) RetryAfter() time.Duration { return time.Second }

// submit validates a spec, registers a new job, persists it and starts its
// goroutine. parent, when valid, is the submitting client's span context
// (parsed from its traceparent header): the job's root span becomes its
// child, which is how a coordinator's dispatch span and the worker-side
// job span stitch into one trace.
//
// Identical concurrent submissions single-flight: if a job with the same
// dedupe key (analytic profile hash + the result-affecting remainder of the
// normalized spec, see dedupe.go) is already executing, the caller is
// attached to that job — same ID, same status stream, same result — and no
// new execution, persistence or solver work happens. The dedupe check sits
// before the drain/saturation gates on purpose: joining an in-flight
// execution adds no load, so it stays available even when admissions are
// rejected.
func (s *Server) submit(spec JobSpec, parent obs.SpanContext) (*job, error) {
	exec, err := s.executor.Prepare(spec)
	if err != nil {
		return nil, err
	}
	key := dedupeKey(spec)

	s.mu.Lock()
	if s.baseCtx.Err() != nil {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if prev, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.metrics.dedupeHits.Inc()
		s.hub.Log.Debug("job deduplicated onto in-flight execution",
			"job_id", prev.id, "type", spec.Type)
		return prev, nil
	}
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if s.maxJobs > 0 && s.running >= s.maxJobs {
		err := &SaturatedError{Limit: s.maxJobs, Running: s.running}
		s.mu.Unlock()
		return nil, err
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("job-%d", s.seq),
		spec:      spec,
		created:   time.Now(),
		state:     StateRunning,
		dedupeKey: key,
	}
	j.progress.metrics = s.metrics
	j.progress.update(ProgressStatus{Chips: spec.chipCount()})
	s.registerLocked(j)
	s.inflight[key] = j
	s.mu.Unlock()

	j.span = s.hub.Tracer.StartSpan(parent, "beerd.job")
	j.span.SetAttr("job_id", j.id)
	j.span.SetAttr("type", spec.Type)
	s.metrics.jobsSubmitted.With(spec.Type).Inc()
	s.hub.Log.Info("job submitted",
		"job_id", j.id, "type", spec.Type,
		"trace_id", j.span.Context().Trace.String())

	s.start(j, exec)
	return j, nil
}

// registerLocked adds a job to the table and claims its WaitGroup slot;
// callers hold s.mu (the shutdown check and the Add must be atomic against
// Close).
func (s *Server) registerLocked(j *job) {
	j.progress.metrics = s.metrics
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.runCtx = ctx
	j.cancel = cancel
	s.table.put(j)
	s.order = append(s.order, j.id)
	s.running++
	s.wg.Add(1)
}

// releaseDedupe drops the job's in-flight single-flight entry, if it still
// owns one. Called when the job's goroutine finishes, and eagerly on DELETE
// so a freshly cancelled (doomed) execution stops absorbing new identical
// submissions.
func (s *Server) releaseDedupe(j *job) {
	if j.dedupeKey == "" {
		return
	}
	s.mu.Lock()
	if s.inflight[j.dedupeKey] == j {
		delete(s.inflight, j.dedupeKey)
	}
	s.mu.Unlock()
}

// start persists the job's running record and launches its goroutine. The
// record is written before the goroutine exists, so a crash at any later
// point leaves a "running" record for the next boot to resume.
func (s *Server) start(j *job, exec Execution) {
	j.mu.Lock()
	j.started = time.Now()
	j.mu.Unlock()
	j.invalidateStatus()
	if j.span == nil {
		// Resumed after a restart: the submitting request (and its trace)
		// is gone, so the re-run gets a fresh root span.
		j.span = s.hub.Tracer.StartSpan(obs.SpanContext{}, "beerd.job.resume")
		j.span.SetAttr("job_id", j.id)
		j.span.SetAttr("type", j.spec.Type)
	}
	s.persistJob(j)

	go func() {
		defer s.wg.Done()
		defer j.cancel()
		env := ExecEnv{
			JobID: j.id,
			Cache: s.jobCache(j),
			Report: func(p ProgressStatus) {
				j.progress.update(p)
				j.invalidateStatus()
				j.notify() // wake SSE streams
			},
			Trace: j.span.Context(),
		}
		result, err := exec(j.runCtx, env)
		switch {
		case err == nil:
			if result != nil && result.Recover != nil {
				// Fold the recovery's solver work into the server totals —
				// on a coordinator this is the dispatched worker's reported
				// work, so the fleet's front end aggregates the whole
				// cluster's solver effort.
				s.solve.addStats(result.Recover.Solver)
				s.solve.addNoise(result.Recover.Noise)
			}
			j.finish(StateSucceeded, nil, result)
		case j.runCtx.Err() != nil:
			j.finish(StateCanceled, j.runCtx.Err(), nil)
		default:
			j.finish(StateFailed, err, nil)
		}
		s.mu.Lock()
		s.running--
		if j.dedupeKey != "" && s.inflight[j.dedupeKey] == j {
			delete(s.inflight, j.dedupeKey)
		}
		s.mu.Unlock()
		// Persist the terminal record before invalidating the cached status
		// body: pollers keep being served the stale "running" snapshot until
		// the store write lands, so a client that observes a terminal status
		// and immediately inspects the store (or restarts the server) finds
		// the terminal record already durable.
		s.persistJob(j)
		// Count the job in /metrics before its terminal status becomes
		// visible, so a client that observes the terminal state and then
		// scrapes always finds the job on the completion counters.
		state, errText, started, finished := j.snapshotState()
		s.metrics.observeFinished(j.spec.Type, state, started, finished, result)
		j.invalidateStatus()
		if err != nil {
			j.span.SetError(err)
		}
		j.span.SetAttr("state", string(state))
		j.span.End()
		s.hub.Log.Info("job finished",
			"job_id", j.id, "state", string(state), "error", errText,
			"dur", finished.Sub(started),
			"trace_id", j.span.Context().Trace.String())
		j.notify() // wake SSE streams for the terminal event
	}()
}

// jobCache builds the job's solve cache: the store's content-addressed
// registry labeled with the job id (so the registry records provenance),
// layered over the remote tier if one is configured, wrapped with the
// server-wide solver counters.
func (s *Server) jobCache(j *job) repro.SolveCache {
	var inner repro.SolveCache = s.store.SolveCache(j.id)
	if s.tier != nil {
		inner = tieredCache{local: inner, tier: s.tier}
	}
	return countingCache{counter: &s.solve, metrics: s.metrics, inner: inner}
}

// tieredCache layers a remote solve-cache tier behind the local store
// registry: lookups fall through to the tier on a local miss (and the hit
// is written back locally), stores go to both. A tier failure is a miss —
// a worker cut off from its coordinator degrades to local caching.
type tieredCache struct {
	local, tier repro.SolveCache
}

func (c tieredCache) Lookup(p *repro.Profile) (*repro.SolveResult, bool) {
	if res, ok := c.local.Lookup(p); ok {
		return res, true
	}
	res, ok := c.tier.Lookup(p)
	if ok {
		c.local.Store(p, res)
	}
	return res, ok
}

func (c tieredCache) Store(p *repro.Profile, res *repro.SolveResult) {
	c.local.Store(p, res)
	c.tier.Store(p, res)
}

// get returns a job by id. This is the status-poll hot path: it touches
// only the job's table shard, never the admission lock.
func (s *Server) get(id string) (*job, bool) {
	return s.table.get(id)
}

// list returns all jobs in submission order.
func (s *Server) list() []*job {
	s.mu.Lock()
	order := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]*job, 0, len(order))
	for _, id := range order {
		if j, ok := s.table.get(id); ok {
			out = append(out, j)
		}
	}
	return out
}

// stateCounts tallies jobs per state for /healthz.
func (s *Server) stateCounts() map[string]int {
	counts := map[string]int{}
	for _, j := range s.list() {
		st, _, _, _ := j.snapshotState()
		counts[string(st)]++
	}
	return counts
}

// progressState folds the pipeline's event stream into counters that only
// ever increase, so a poller observing two status snapshots can assert the
// later one is at least as far along (the beerd smoke test does exactly
// that). One instance is shared by all chips of a job; events arrive
// serialized per run (see Engine.Recover) but snapshot reads race with
// writes, hence the mutex.
type progressState struct {
	mu      sync.Mutex
	updates int64
	stage   string
	chips   int

	discoverDone  int
	collectPasses int64
	collectTotal  int64
	collectDone   int
	candidates    int
	solveDone     bool
	solver        SolverProgress
}

// observe is the repro.ProgressFunc wired into each job's pipeline.
func (p *progressState) observe(ev repro.ProgressEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.updates++
	p.stage = ev.Stage.String()
	switch ev.Stage {
	case repro.StageDiscover:
		if ev.Done {
			p.discoverDone++
		}
	case repro.StageCollect:
		if ev.Done {
			p.collectDone++
		} else {
			p.collectPasses++
			if total := int64(ev.Passes) * int64(p.chips); total > p.collectTotal {
				p.collectTotal = total
			}
		}
	case repro.StageSolve:
		if ev.Candidates > p.candidates {
			p.candidates = ev.Candidates
		}
		// Solver counters are cumulative within a run; keep the fold
		// monotonic anyway so a mixed event stream can't step backwards.
		p.solver.Conflicts = max(p.solver.Conflicts, ev.Conflicts)
		p.solver.Propagations = max(p.solver.Propagations, ev.Propagations)
		p.solver.Learned = max(p.solver.Learned, ev.LearnedClauses)
		p.solver.Races = max(p.solver.Races, ev.Races)
		p.solver.PatternsUsed = max(p.solver.PatternsUsed, ev.PatternsUsed)
		p.solver.PatternsPlanned = max(p.solver.PatternsPlanned, ev.PatternsPlanned)
		p.solver.EntriesDropped = max(p.solver.EntriesDropped, int64(ev.DroppedEntries))
		// Confidence is the one non-monotonic solver field: each candidate
		// event re-grades the surviving set, so the freshest nonzero report
		// wins (retraction events grade zero — no candidate exists yet).
		if ev.Confidence != 0 {
			p.solver.Confidence = ev.Confidence
		}
		if ev.Done {
			p.solveDone = true
		}
	}
}

// snapshot renders the progress for a status response.
func (p *progressState) snapshot() ProgressStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ProgressStatus{
		Updates: p.updates,
		Stage:   p.stage,
		Chips:   p.chips,
		Discover: StageStatus{
			Done:  p.discoverDone >= p.chips && p.updates > 0,
			Count: int64(p.discoverDone),
			Total: int64(p.chips),
		},
		Collect: StageStatus{
			Done:  p.collectDone >= p.chips && p.updates > 0,
			Count: p.collectPasses,
			Total: p.collectTotal,
		},
		Solve: StageStatus{
			Done:  p.solveDone,
			Count: int64(p.candidates),
		},
		Solver: p.solver,
	}
}

// Handler returns the beerd HTTP API (full request/response schemas in
// docs/API.md):
//
//	POST   /api/v1/jobs             submit a job (JobSpec JSON)
//	GET    /api/v1/jobs             list job statuses
//	GET    /api/v1/jobs/{id}        one job's status + per-stage progress
//	GET    /api/v1/jobs/{id}/events live status stream (Server-Sent Events)
//	GET    /api/v1/jobs/{id}/result a finished job's result
//	DELETE /api/v1/jobs/{id}        cancel a running job
//	GET    /codes                   the recovered-code registry (export format)
//	GET    /codes/{hash}            one registry record, all candidates
//	GET    /healthz                 liveness + engine/job/solver counters
//	GET    /metrics                 Prometheus text exposition (obs registry)
//	GET    /debug/traces            JSON dump of the span ring buffer
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /codes", s.handleCodes)
	mux.HandleFunc("GET /codes/{hash}", s.handleCode)
	// The registry is also reachable under the versioned prefix for clients
	// that mount everything below /api/v1.
	mux.HandleFunc("GET /api/v1/codes", s.handleCodes)
	mux.HandleFunc("GET /api/v1/codes/{hash}", s.handleCode)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.hub.Metrics.Handler())
	mux.Handle("GET /debug/traces", s.hub.Tracer.Handler())
	return mux
}
