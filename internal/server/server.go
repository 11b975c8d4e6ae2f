// Package server turns the batch runner into a long-running deployment
// service: an asynchronous job queue with on-disk persistence, a
// fingerprint-keyed result cache, per-job cancellation and live progress
// events, fronted by an HTTP API (see NewHandler).
//
// The package is deliberately independent of the root mobisense package
// (mirroring internal/store): job execution is delegated through the
// Engine interface, which the root package's service façade implements.
// Each job owns a directory under <data>/jobs/<id> holding job.json (the
// request plus its lifecycle state) and, for executed jobs, a sweep store
// (internal/store) the runner streams finished runs into. Because the
// store is resumable, a server killed mid-job picks the job up on restart
// and re-executes only the missing runs.
package server

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobisense/internal/metrics"
)

// Service telemetry, exported at GET /metrics. Counter/gauge handles are
// resolved once at init; per-event updates are single atomic ops.
var (
	mCacheHits      = metrics.Default.Counter(`jobs_total{outcome="cache_hit"}`)
	mJobsDone       = metrics.Default.Counter(`jobs_total{outcome="done"}`)
	mJobsFailed     = metrics.Default.Counter(`jobs_total{outcome="failed"}`)
	mJobsCancelled  = metrics.Default.Counter(`jobs_total{outcome="cancelled"}`)
	mJobsRunning    = metrics.Default.Gauge("jobs_running")
	mSubscribers    = metrics.Default.Gauge("sse_subscribers")
	mEventsSent     = metrics.Default.Counter("sse_events_sent_total")
	mEventsDropped  = metrics.Default.Counter("sse_events_dropped_total")
	mJobsGCPruned   = metrics.Default.Counter("jobs_gc_pruned_total")
	mSubmittedRun   = metrics.Default.Counter(`jobs_submitted_total{kind="run"}`)
	mSubmittedSweep = metrics.Default.Counter(`jobs_submitted_total{kind="sweep"}`)
)

func init() {
	metrics.Default.Help("jobs_total", "Jobs reaching a terminal state, by outcome.")
	metrics.Default.Help("jobs_submitted_total", "Jobs accepted for execution, by kind.")
	metrics.Default.Help("jobs_running", "Jobs dispatching or finishing runs; a job whose last runs are still executing counts, so this reads up to jobs + workers.")
	metrics.Default.Help("job_queue_depth", "Jobs waiting for a dispatch slot.")
	metrics.Default.Help("sse_subscribers", "Open event-stream subscriptions.")
	metrics.Default.Help("sse_events_sent_total", "Events delivered to subscribers.")
	metrics.Default.Help("sse_events_dropped_total", "Events dropped or evicted on slow subscribers.")
	metrics.Default.Help("store_bytes_written_total", "Bytes appended to sweep stores.")
	metrics.Default.Help("runs_started_total", "Deployment runs started.")
	metrics.Default.Help("runs_finished_total", "Deployment runs finished successfully.")
	metrics.Default.Help("runs_failed_total", "Deployment runs that returned an error.")
	metrics.Default.Help("run_duration_seconds", "Wall-clock run duration, by scheme.")
	metrics.Default.Help("run_settling_time_seconds", "Trace-derived settling time of traced runs (simulation seconds).")
	metrics.Default.Help("run_time_to_90_coverage_seconds", "Trace-derived time to 90% of final coverage (simulation seconds).")
	metrics.Default.Help("run_time_to_connectivity_seconds", "Trace-derived time to stable full connectivity (simulation seconds).")
	metrics.Default.Help("http_requests_total", "HTTP requests served, by method.")
}

func submittedCounter(kind string) *metrics.Counter {
	switch kind {
	case "run":
		return mSubmittedRun
	case "sweep":
		return mSubmittedSweep
	}
	return metrics.Default.Counter(fmt.Sprintf("jobs_submitted_total{kind=%q}", kind))
}

// JobState is a job's lifecycle state. Queued and running jobs are
// re-queued (and resumed from their store) when the server restarts; the
// other states are terminal.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether a job in this state will never run again.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Prepared is the engine's validation result for a submitted request.
type Prepared struct {
	// Fingerprint deterministically identifies the computation the request
	// describes; two requests share one exactly when their results are
	// interchangeable. It keys the result cache and restart identity.
	Fingerprint string
	// TotalRuns is the number of runs the request expands to.
	TotalRuns int
}

// Progress is one progress observation of a running job, computed by the
// engine (which owns rate/ETA estimation) and broadcast to subscribers.
type Progress struct {
	Done      int   `json:"done"`
	Total     int   `json:"total"`
	ElapsedMS int64 `json:"elapsed_ms"`
	EtaMS     int64 `json:"eta_ms,omitempty"`
}

// ExecJob is one job execution handed to the engine.
type ExecJob struct {
	Kind    string
	Request json.RawMessage
	// StoreDir is the job-owned sweep store directory; Resume is set when
	// the directory may already hold records from an interrupted session.
	StoreDir string
	Resume   bool
	// OnProgress observes run completions (calls are serialized).
	OnProgress func(Progress)
	// Dispatched frees the job's dispatch slot, so the next queued job
	// starts while this one's last runs finish. The engine calls it once
	// its last run is handed to a worker, or dispatch stops on
	// cancellation. Extra calls are no-ops, and the slot frees when
	// Execute returns at the latest.
	Dispatched func()
}

// Engine executes submitted jobs; the mobisense service façade implements
// it on top of RunBatch / Sweep.Run.
type Engine interface {
	// Prepare validates a request of the given kind ("run" or "sweep")
	// and returns its fingerprint and run count.
	Prepare(kind string, req json.RawMessage) (Prepared, error)
	// Execute runs the job to completion (or ctx cancellation), streaming
	// finished runs into job.StoreDir, and returns the JSON result
	// summary. A ctx cancellation must surface as ctx.Err().
	Execute(ctx context.Context, job ExecJob) (json.RawMessage, error)
	// Schemes, Scenarios and Axes describe the registries for the
	// introspection endpoints; the returned values must be JSON-encodable.
	Schemes() any
	Scenarios() any
	Axes() any
	// Traces aggregates the trace series of the store at storeDir into
	// per-group mean curves for GET /v1/jobs/{id}/traces. The returned
	// value must be JSON-encodable.
	Traces(storeDir string) (any, error)
}

// Event is one server-sent update about a job.
type Event struct {
	// Type is "state" (payload JobView) or "progress" (payload Progress).
	Type string
	// Payload is JSON-encodable.
	Payload any
}

// JobView is the externally visible snapshot of a job, returned by the
// status endpoints and embedded in state events.
type JobView struct {
	ID          string          `json:"id"`
	Kind        string          `json:"kind"`
	State       JobState        `json:"state"`
	Fingerprint string          `json:"fingerprint"`
	CacheHit    bool            `json:"cache_hit,omitempty"`
	Created     time.Time       `json:"created"`
	Request     json.RawMessage `json:"request"`
	Progress    *Progress       `json:"progress,omitempty"`
	Error       string          `json:"error,omitempty"`
	// Result is the job's JSON result summary (aggregates), present once
	// the job is done.
	Result json.RawMessage `json:"result,omitempty"`
}

// jobFile is the persisted section of a job (jobs/<id>/job.json).
type jobFile struct {
	ID          string    `json:"id"`
	Kind        string    `json:"kind"`
	State       JobState  `json:"state"`
	Fingerprint string    `json:"fingerprint"`
	TotalRuns   int       `json:"total_runs"`
	CacheHit    bool      `json:"cache_hit,omitempty"`
	Created     time.Time `json:"created"`
	// Finished is when the job reached a terminal state (zero for jobs
	// persisted before it existed, or not yet terminal); the GC ages
	// terminal jobs by it, falling back to Created.
	Finished time.Time       `json:"finished,omitzero"`
	Request  json.RawMessage `json:"request"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// age returns the terminal job's reference time for TTL pruning.
func (f jobFile) age() time.Time {
	if !f.Finished.IsZero() {
		return f.Finished
	}
	return f.Created
}

// job is the in-memory state of one job. All mutable fields are guarded
// by the manager's mutex.
type job struct {
	meta            jobFile
	progress        *Progress
	cancelRun       context.CancelFunc // non-nil while running
	cancelRequested bool
	subs            []chan Event
}

func (j *job) view() JobView {
	v := JobView{
		ID:          j.meta.ID,
		Kind:        j.meta.Kind,
		State:       j.meta.State,
		Fingerprint: j.meta.Fingerprint,
		CacheHit:    j.meta.CacheHit,
		Created:     j.meta.Created,
		Request:     j.meta.Request,
		Error:       j.meta.Error,
		Result:      j.meta.Result,
	}
	if j.progress != nil {
		p := *j.progress
		v.Progress = &p
	} else if j.meta.TotalRuns > 0 {
		v.Progress = &Progress{Total: j.meta.TotalRuns}
		if j.meta.State == StateDone {
			v.Progress.Done = j.meta.TotalRuns
		}
	}
	return v
}

// DefaultCacheSize bounds the result cache when the caller passes no
// explicit size.
const DefaultCacheSize = 1024

// resultCache is a max-entries LRU over completed job results, keyed by
// request fingerprint. Hits stay O(1): a map finds the entry, the
// intrusive list re-links it to the front, and inserts evict from the
// back once the bound is reached. It is guarded by the manager's mutex.
type resultCache struct {
	max int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type cacheEntry struct {
	key string
	val json.RawMessage
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &resultCache{max: max, ll: list.New(), m: map[string]*list.Element{}}
}

func (c *resultCache) get(key string) (json.RawMessage, bool) {
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

func (c *resultCache) add(key string, val json.RawMessage) {
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) remove(key string) {
	if el, ok := c.m[key]; ok {
		c.ll.Remove(el)
		delete(c.m, key)
	}
}

// Manager owns the job queue: submission, persistence, the result cache,
// job execution and event fan-out.
type Manager struct {
	dir    string
	engine Engine
	log    atomic.Pointer[slog.Logger] // set via SetLogger, read by workers

	ctx    context.Context
	cancel context.CancelFunc
	wake   *sync.Cond
	wg     sync.WaitGroup // dispatch slots and executing jobs

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order (restart: created order)
	queue  []string // pending job IDs, FIFO
	cache  *resultCache
	closed bool
}

// SetLogger attaches a structured logger for job lifecycle records; nil
// (the default) discards them. Safe to call while workers are running.
func (m *Manager) SetLogger(l *slog.Logger) {
	if l == nil {
		l = discardLogger()
	}
	m.log.Store(l)
}

// Logger returns the manager's logger (never nil).
func (m *Manager) Logger() *slog.Logger { return m.log.Load() }

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// NewManager opens (or creates) the server data directory, reloads every
// persisted job — terminal jobs populate the result cache, interrupted
// ones re-queue with store resume — and starts `jobs` dispatch slots
// (values below 1 select 1). A job holds a slot from its start until it
// has dispatched its last run (ExecJob.Dispatched) and then finishes on
// its own, so with one slot jobs dispatch their runs strictly in queue
// order. cacheSize bounds the result cache's entry count (<= 0 selects
// DefaultCacheSize); the oldest completed entries are evicted LRU once it
// fills.
func NewManager(dir string, engine Engine, jobs, cacheSize int) (*Manager, error) {
	if dir == "" {
		return nil, fmt.Errorf("server: no data directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if jobs < 1 {
		jobs = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		dir:    dir,
		engine: engine,
		ctx:    ctx,
		cancel: cancel,
		jobs:   map[string]*job{},
		cache:  newResultCache(cacheSize),
	}
	m.log.Store(discardLogger())
	m.wake = sync.NewCond(&m.mu)
	if err := m.scan(); err != nil {
		cancel()
		return nil, err
	}
	// Queue depth is sampled at scrape time under the manager lock; a
	// later manager in the same process (tests) takes over the series.
	metrics.Default.GaugeFunc("job_queue_depth", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.queue))
	})
	for i := 0; i < jobs; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// scan reloads persisted jobs from the data directory.
func (m *Manager) scan() error {
	entries, err := os.ReadDir(filepath.Join(m.dir, "jobs"))
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	var loaded []*job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		path := filepath.Join(m.dir, "jobs", e.Name(), "job.json")
		data, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // half-created job dir; ignore
			}
			return fmt.Errorf("server: %w", err)
		}
		var meta jobFile
		if err := json.Unmarshal(data, &meta); err != nil {
			return fmt.Errorf("server: %s: %w", path, err)
		}
		if meta.ID != e.Name() {
			return fmt.Errorf("server: %s names job %q", path, meta.ID)
		}
		loaded = append(loaded, &job{meta: meta})
	}
	sort.Slice(loaded, func(i, j int) bool {
		a, b := loaded[i].meta, loaded[j].meta
		if !a.Created.Equal(b.Created) {
			return a.Created.Before(b.Created)
		}
		return a.ID < b.ID
	})
	for _, j := range loaded {
		m.jobs[j.meta.ID] = j
		m.order = append(m.order, j.meta.ID)
		switch {
		case j.meta.State == StateDone && !j.meta.CacheHit && len(j.meta.Result) > 0:
			m.cache.add(j.meta.Fingerprint, j.meta.Result)
		case !j.meta.State.Terminal():
			// Interrupted mid-flight (crash or shutdown): re-queue; the
			// job's store resumes, so only missing runs execute.
			j.meta.State = StateQueued
			m.queue = append(m.queue, j.meta.ID)
		}
	}
	return nil
}

// Close stops accepting jobs, cancels the running ones (their finished
// runs persist; they re-queue on the next start) and waits for every job
// to end.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wake.Broadcast()
	m.wg.Wait()
}

// Dir returns the server data directory.
func (m *Manager) Dir() string { return m.dir }

// Engine returns the execution engine (for the introspection endpoints).
func (m *Manager) Engine() Engine { return m.engine }

// StoreDir returns the job's sweep-store directory (which may not exist
// yet, or ever, for cache-hit jobs).
func (m *Manager) StoreDir(id string) string {
	return filepath.Join(m.dir, "jobs", id, "store")
}

func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: job id entropy: %v", err))
	}
	return "j" + hex.EncodeToString(b[:])
}

// Submit validates a request, answers it from the result cache when an
// identical computation already completed, and otherwise persists and
// enqueues a new job.
func (m *Manager) Submit(kind string, req json.RawMessage) (JobView, error) {
	prep, err := m.engine.Prepare(kind, req)
	if err != nil {
		return JobView{}, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobView{}, fmt.Errorf("server: shutting down")
	}
	id := newJobID()
	for m.jobs[id] != nil {
		id = newJobID()
	}
	j := &job{meta: jobFile{
		ID:          id,
		Kind:        kind,
		State:       StateQueued,
		Fingerprint: prep.Fingerprint,
		TotalRuns:   prep.TotalRuns,
		Created:     time.Now().UTC(),
		Request:     req,
	}}
	if result, hit := m.cache.get(prep.Fingerprint); hit {
		// An identical computation already completed: answer O(1) from
		// the cache, no store, no execution.
		j.meta.State = StateDone
		j.meta.CacheHit = true
		j.meta.Finished = j.meta.Created
		j.meta.Result = result
	}
	if err := m.persistLocked(j); err != nil {
		return JobView{}, err
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	submittedCounter(kind).Inc()
	if j.meta.CacheHit {
		mCacheHits.Inc()
	}
	m.Logger().Info("job submitted", "job", id, "kind", kind,
		"fingerprint", prep.Fingerprint, "total_runs", prep.TotalRuns,
		"cache_hit", j.meta.CacheHit)
	if !j.meta.State.Terminal() {
		m.queue = append(m.queue, id)
		m.wake.Signal()
	}
	return j.view(), nil
}

// Get returns a job's current view.
func (m *Manager) Get(id string) (JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// List returns every job in submission order.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobView, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].view())
	}
	return out
}

// Cancel stops a queued or running job. Finished runs stay in the job's
// store; cancelling an already-terminal job is a no-op.
func (m *Manager) Cancel(id string) (JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, false
	}
	switch j.meta.State {
	case StateQueued:
		j.cancelRequested = true
		j.meta.State = StateCancelled
		j.meta.Finished = time.Now().UTC()
		mJobsCancelled.Inc()
		m.Logger().Info("job cancelled", "job", id, "state", "queued")
		m.persistLocked(j) // best effort; state change survives either way
		m.broadcastLocked(j, Event{Type: "state", Payload: j.view()})
		m.closeSubsLocked(j)
	case StateRunning:
		j.cancelRequested = true
		if j.cancelRun != nil {
			j.cancelRun()
		}
		// The worker observes the cancellation, finishes in-flight runs
		// (they reach the store) and marks the job cancelled.
	}
	return j.view(), true
}

// Subscribe returns a channel of events for a job plus an unsubscribe
// function. The current state (and latest progress) is delivered first;
// the channel closes after a terminal state event.
func (m *Manager) Subscribe(id string) (<-chan Event, func(), bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, false
	}
	ch := make(chan Event, 64)
	ch <- Event{Type: "state", Payload: j.view()}
	if j.progress != nil {
		ch <- Event{Type: "progress", Payload: *j.progress}
	}
	if j.meta.State.Terminal() {
		close(ch)
		return ch, func() {}, true
	}
	j.subs = append(j.subs, ch)
	mSubscribers.Inc()
	unsub := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, s := range j.subs {
			if s == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				mSubscribers.Dec()
				return
			}
		}
	}
	return ch, unsub, true
}

// execute runs one job on the engine. A panic ends the job with an
// error and its stack goes to the log, so the worker keeps serving: left
// to crash the process, a poison job would crash it again on every
// restart, since interrupted jobs resume.
func (m *Manager) execute(ctx context.Context, id string, exec ExecJob) (result json.RawMessage, err error) {
	defer func() {
		if v := recover(); v != nil {
			m.Logger().Error("job panicked", "job", id, "panic", fmt.Sprint(v), "stack", string(debug.Stack()))
			result, err = nil, fmt.Errorf("server: job panicked: %v", v)
		}
	}()
	return m.engine.Execute(ctx, exec)
}

// worker is one dispatch slot: it starts the next queued job and waits
// until that job has dispatched its last run, until the manager closes.
// The job finishes its runs, aggregates and persists on a goroutine of
// its own.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.wake.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		id := m.queue[0]
		m.queue = m.queue[1:]
		j := m.jobs[id]
		if j == nil || j.meta.State != StateQueued || j.cancelRequested {
			// nil: the job was GC'd while its id sat in the queue.
			m.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(m.ctx)
		j.cancelRun = cancel
		j.meta.State = StateRunning
		mJobsRunning.Inc()
		m.Logger().Info("job started", "job", id, "kind", j.meta.Kind, "total_runs", j.meta.TotalRuns)
		m.persistLocked(j)
		m.broadcastLocked(j, Event{Type: "state", Payload: j.view()})
		storeDir := m.StoreDir(id)
		// Resume whenever the store already exists (prior interrupted
		// session); the Store layer treats a fresh directory as a new
		// store either way.
		_, statErr := os.Stat(storeDir)
		slot := make(chan struct{})
		exec := ExecJob{
			Kind:     j.meta.Kind,
			Request:  j.meta.Request,
			StoreDir: storeDir,
			Resume:   statErr == nil,
			OnProgress: func(p Progress) {
				m.mu.Lock()
				j.progress = &p
				m.broadcastLocked(j, Event{Type: "progress", Payload: p})
				m.mu.Unlock()
			},
			Dispatched: sync.OnceFunc(func() { close(slot) }),
		}
		m.wg.Add(1)
		m.mu.Unlock()

		go func() {
			defer m.wg.Done()
			defer exec.Dispatched()
			m.run(ctx, cancel, j, exec)
		}()
		<-slot
	}
}

// run executes one started job and records how it ended.
func (m *Manager) run(ctx context.Context, cancel context.CancelFunc, j *job, exec ExecJob) {
	id := j.meta.ID
	started := time.Now()
	result, err := m.execute(ctx, id, exec)
	cancel()

	m.mu.Lock()
	defer m.mu.Unlock()
	j.cancelRun = nil
	mJobsRunning.Dec()
	switch {
	case err == nil:
		j.meta.State = StateDone
		j.meta.Result = result
		m.cache.add(j.meta.Fingerprint, result)
		mJobsDone.Inc()
	case j.cancelRequested:
		j.meta.State = StateCancelled
		j.meta.Error = "cancelled"
		mJobsCancelled.Inc()
	case ctx.Err() != nil && m.ctx.Err() != nil:
		// Server shutdown, not a job failure: back to queued so the
		// next start resumes it from the store.
		j.meta.State = StateQueued
	default:
		j.meta.State = StateFailed
		j.meta.Error = err.Error()
		mJobsFailed.Inc()
	}
	if j.meta.State.Terminal() {
		j.meta.Finished = time.Now().UTC()
	}
	if err == nil {
		m.Logger().Info("job finished", "job", id, "state", j.meta.State,
			"elapsed", time.Since(started).Round(time.Millisecond))
	} else {
		m.Logger().Warn("job ended", "job", id, "state", j.meta.State, "err", err,
			"elapsed", time.Since(started).Round(time.Millisecond))
	}
	m.persistLocked(j)
	m.broadcastLocked(j, Event{Type: "state", Payload: j.view()})
	if j.meta.State.Terminal() {
		m.closeSubsLocked(j)
	}
}

// GC prunes terminal jobs (and their on-disk directories, stores
// included) whose terminal timestamp is older than ttl, returning how
// many were removed. Queued and running jobs are never touched, whatever
// their age. A pruned job's result-cache entry is dropped with it —
// unless a surviving done job backs the same fingerprint — so the cache
// never outlives every job that could repopulate it across a restart.
// ttl <= 0 is a no-op.
//
// Directory deletion happens after the manager lock is released: a
// multi-gigabyte layout store must not stall submissions or progress
// broadcasts. If a deletion fails the job is already unregistered; the
// leftover directory reloads as a terminal job on the next start and a
// later sweep retries it.
func (m *Manager) GC(ttl time.Duration) int {
	if ttl <= 0 {
		return 0
	}
	cutoff := time.Now().UTC().Add(-ttl)
	m.mu.Lock()
	var pruned []*job
	kept := m.order[:0]
	// Fingerprints still backed by a kept done job must stay cached.
	keptBacking := map[string]bool{}
	for _, id := range m.order {
		j := m.jobs[id]
		if !j.meta.State.Terminal() || j.meta.age().After(cutoff) {
			kept = append(kept, id)
			if j.meta.State == StateDone && !j.meta.CacheHit {
				keptBacking[j.meta.Fingerprint] = true
			}
			continue
		}
		pruned = append(pruned, j)
	}
	m.order = kept
	for _, j := range pruned {
		if j.meta.State == StateDone && !j.meta.CacheHit && !keptBacking[j.meta.Fingerprint] {
			m.cache.remove(j.meta.Fingerprint)
		}
		m.closeSubsLocked(j)
		delete(m.jobs, j.meta.ID)
	}
	if len(pruned) > 0 {
		// A job cancelled while queued is terminal but its id may still
		// sit in the pending queue; drop pruned ids so the worker never
		// pops an unregistered job.
		queue := m.queue[:0]
		for _, id := range m.queue {
			if m.jobs[id] != nil {
				queue = append(queue, id)
			}
		}
		m.queue = queue
	}
	m.mu.Unlock()

	for _, j := range pruned {
		os.RemoveAll(filepath.Join(m.dir, "jobs", j.meta.ID))
	}
	if len(pruned) > 0 {
		mJobsGCPruned.Add(int64(len(pruned)))
		m.Logger().Info("gc pruned jobs", "count", len(pruned), "ttl", ttl)
	}
	return len(pruned)
}

// persistLocked writes the job's metadata atomically (write + rename).
func (m *Manager) persistLocked(j *job) error {
	dir := filepath.Join(m.dir, "jobs", j.meta.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	data, err := json.MarshalIndent(j.meta, "", "  ")
	if err != nil {
		return fmt.Errorf("server: encode job: %w", err)
	}
	data = append(data, '\n')
	tmp := filepath.Join(dir, "job.json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "job.json")); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// broadcastLocked fans an event out to the job's subscribers. Progress
// events may be dropped for a slow subscriber (the next one supersedes
// them); the oldest buffered event is evicted for state events so
// terminal notifications always arrive.
func (m *Manager) broadcastLocked(j *job, ev Event) {
	for _, ch := range j.subs {
		deliver(ch, ev)
	}
}

// deliver sends ev without ever blocking: progress events are dropped
// when the subscriber's buffer is full, state events evict the oldest
// buffered event until they fit.
func deliver(ch chan Event, ev Event) {
	for {
		select {
		case ch <- ev:
			mEventsSent.Inc()
			return
		default:
		}
		if ev.Type == "progress" {
			mEventsDropped.Inc()
			return // drop; a newer snapshot will follow
		}
		select { // evict oldest to make room for the state event
		case <-ch:
			mEventsDropped.Inc()
		default:
		}
	}
}

// closeSubsLocked ends every subscription after a terminal event.
func (m *Manager) closeSubsLocked(j *job) {
	for _, ch := range j.subs {
		close(ch)
	}
	mSubscribers.Add(-int64(len(j.subs)))
	j.subs = nil
}
