package mobisense

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"net/http"
	"time"

	"mobisense/internal/server"
	istore "mobisense/internal/store"
)

// This file is the public façade of the deployment service: it wires the
// generic job queue / HTTP layer of internal/server onto the batch
// runner, the sweep store and the scheme/scenario registries. Start one
// with NewService (cmd/serve is the CLI around it):
//
//	svc, err := mobisense.NewService("serve-data", mobisense.ServiceOptions{})
//	http.ListenAndServe(":8080", svc.Handler())
//
// Jobs submitted over HTTP run asynchronously on the service's one run
// pool, stream every finished run into a job-owned sweep store (so a
// killed server resumes mid-sweep on restart), and are answered O(1)
// from a fingerprint-keyed result cache when an identical computation
// has already completed.

// RunRequest is the JSON body of POST /v1/runs: one deployment, and what
// cmd/deploy's flags fill. Zero fields take the paper's §4.3 defaults
// (DefaultConfig); negative or non-finite numbers are refused.
type RunRequest struct {
	// Scheme is required; see GET /v1/schemes.
	Scheme string `json:"scheme"`
	// Scenario names the deployment environment (default "free"); see
	// GET /v1/scenarios. FieldSeed selects the generated layout of seeded
	// scenarios and field specs in a single run (default 1); a sweep
	// derives each repeat's layout from its seed and refuses it.
	Scenario  string `json:"scenario,omitempty"`
	FieldSeed uint64 `json:"field_seed,omitempty"`
	// Field is an inline declarative environment — bounds, obstacles,
	// reference point, optional generator — submitted as data instead of
	// a scenario name (setting both is an error). The job's store
	// manifest embeds it, so the result is reproducible anywhere.
	Field *FieldSpec `json:"field,omitempty"`

	N           int     `json:"n,omitempty"`
	Rc          float64 `json:"rc,omitempty"`
	Rs          float64 `json:"rs,omitempty"`
	Speed       float64 `json:"speed,omitempty"`
	Duration    float64 `json:"duration,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	Uniform     bool    `json:"uniform,omitempty"`
	CoverageRes float64 `json:"coverage_res,omitempty"`

	// Scheme option structs (JSON field names follow the Go fields).
	CPVF  *CPVFOptions  `json:"cpvf,omitempty"`
	Floor *FloorOptions `json:"floor,omitempty"`
	VD    *VDOptions    `json:"vd,omitempty"`

	// StoreLayouts persists full sensor layouts in the job's store
	// records (GET /v1/jobs/{id}/records).
	StoreLayouts bool `json:"store_layouts,omitempty"`

	// Trace enables per-tick telemetry sampling at this stride in
	// simulated seconds (0 = off). The series is persisted in the job's
	// store records and powers the dashboard's run-trace chart.
	Trace float64 `json:"trace,omitempty"`
	// TraceLayouts additionally captures the full sensor layout in every
	// trace sample, powering the dashboard's replay animation. Requires
	// Trace.
	TraceLayouts bool `json:"trace_layouts,omitempty"`
	// TraceLayoutStride thins layout capture to every Nth trace sample
	// (0 or 1 = every). Requires TraceLayouts.
	TraceLayoutStride int `json:"trace_layout_stride,omitempty"`
}

// Config expands the request into a validated run configuration: the
// one front door of deploy's flags and of POST /v1/runs. A zero number
// takes the default; a negative or non-finite one is an error.
func (r RunRequest) Config() (Config, error) {
	if r.Scheme == "" {
		return Config{}, fmt.Errorf("mobisense: request has no scheme (have %v)", RegisteredSchemes())
	}
	if err := r.checkNumbers(); err != nil {
		return Config{}, err
	}
	cfg := DefaultConfig(Scheme(r.Scheme))
	fieldSeed := r.FieldSeed
	if fieldSeed == 0 {
		fieldSeed = 1
	}
	var f Field
	var err error
	if r.Field != nil {
		if r.Scenario != "" {
			return Config{}, fmt.Errorf("mobisense: request sets both scenario %q and an inline field; pick one", r.Scenario)
		}
		f, err = BuildFieldSpec(*r.Field, fieldSeed)
	} else {
		f, err = BuildScenario(r.scenarioName(), fieldSeed)
	}
	if err != nil {
		return Config{}, err
	}
	cfg.Field = f
	if r.N > 0 {
		cfg.N = r.N
	}
	if r.Rc > 0 {
		cfg.Rc = r.Rc
	}
	if r.Rs > 0 {
		cfg.Rs = r.Rs
	}
	if r.Speed > 0 {
		cfg.Speed = r.Speed
	}
	if r.Duration > 0 {
		cfg.Duration = r.Duration
	}
	if r.Seed != 0 {
		cfg.Seed = r.Seed
	}
	if r.CoverageRes > 0 {
		cfg.CoverageRes = r.CoverageRes
	}
	cfg.ClusterInit = !r.Uniform
	cfg.CPVF = r.CPVF
	cfg.Floor = r.Floor
	cfg.VD = r.VD
	switch {
	case r.Trace > 0:
		if r.TraceLayoutStride > 1 && !r.TraceLayouts {
			return Config{}, fmt.Errorf("mobisense: trace_layout_stride requires trace_layouts")
		}
		cfg.Trace = &TraceOptions{Stride: r.Trace, Layouts: r.TraceLayouts, LayoutStride: r.TraceLayoutStride}
	case r.TraceLayouts:
		return Config{}, fmt.Errorf("mobisense: trace_layouts requires a trace stride; set trace > 0")
	case r.TraceLayoutStride > 1:
		return Config{}, fmt.Errorf("mobisense: trace_layout_stride requires a trace stride; set trace > 0")
	}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// checkNumbers refuses a negative or non-finite number anywhere in the
// request, naming its field: zero selects the default, so a negative
// value would otherwise run, and cache, as the default silently.
func (r RunRequest) checkNumbers() error {
	type number struct {
		name string
		v    float64
	}
	nums := []number{{"n", float64(r.N)}, {"rc", r.Rc}, {"rs", r.Rs}, {"speed", r.Speed}, {"duration", r.Duration},
		{"coverage_res", r.CoverageRes}, {"trace", r.Trace}, {"trace_layout_stride", float64(r.TraceLayoutStride)}}
	if o := r.CPVF; o != nil {
		nums = append(nums, number{"cpvf.Delta", o.Delta}, number{"cpvf.ForceGain", o.ForceGain})
	}
	if o := r.Floor; o != nil {
		nums = append(nums, number{"floor.TTL", float64(o.TTL)}, number{"floor.ExclusiveFrac", o.ExclusiveFrac})
	}
	if o := r.VD; o != nil {
		nums = append(nums, number{"vd.Rounds", float64(o.Rounds)})
	}
	for _, n := range nums {
		if math.IsNaN(n.v) || math.IsInf(n.v, 0) || n.v < 0 {
			return fmt.Errorf("mobisense: %s must be a finite number >= 0 (0 takes the default), got %g", n.name, n.v)
		}
	}
	return nil
}

// scenarioName returns the request's effective scenario name ("" for an
// inline custom field, which store records report as such).
func (r RunRequest) scenarioName() string {
	if r.Field != nil {
		return ""
	}
	if r.Scenario == "" {
		return "free"
	}
	return r.Scenario
}

// SweepRequest is the JSON body of POST /v1/sweeps: a cross-product
// sweep. The embedded RunRequest fields form the base configuration; the
// axis lists default to the base's single value.
type SweepRequest struct {
	RunRequest
	Schemes   []string `json:"schemes,omitempty"`
	Scenarios []string `json:"scenarios,omitempty"`
	Ns        []int    `json:"ns,omitempty"`
	// Axes are generalized parameter dimensions by built-in axis name
	// (see GET /v1/axes): e.g. {"name":"rc","values":[30,60]}. Aggregates
	// in the job result carry the per-group axis values back.
	Axes []AxisSpec `json:"axes,omitempty"`
	// FixedSeed runs every combination with the base seed verbatim (the
	// paper's paired parameter studies) instead of derived seeds.
	FixedSeed bool `json:"fixed_seed,omitempty"`
	Repeats   int  `json:"repeats,omitempty"`
}

// Sweep expands the request into a Sweep: the one front door of deploy's
// sweep flags and of POST /v1/sweeps. The scenario axis is always
// explicit (default: the base scenario) so fields resolve through the
// registry with paired per-repeat seeds.
func (r SweepRequest) Sweep() (Sweep, error) {
	base := r.RunRequest
	if base.FieldSeed != 0 {
		// Scenario slots replace the base field, so the seed would change
		// the sweep's identity and none of its runs.
		return Sweep{}, fmt.Errorf("mobisense: field_seed applies to single runs; a sweep derives each repeat's field from its seed")
	}
	if base.Scheme == "" && len(r.Schemes) > 0 {
		base.Scheme = r.Schemes[0]
	}
	cfg, err := base.Config()
	if err != nil {
		return Sweep{}, err
	}
	scenarios := r.Scenarios
	if r.Field != nil {
		// An inline field is the sweep's environment; the scenario axis
		// stays empty (Sweep.Expand rejects setting both).
		if len(scenarios) > 0 {
			return Sweep{}, fmt.Errorf("mobisense: request sets both scenarios and an inline field; pick one")
		}
	} else if len(scenarios) == 0 {
		scenarios = []string{base.scenarioName()}
	}
	schemes := make([]Scheme, 0, len(r.Schemes))
	for _, s := range r.Schemes {
		schemes = append(schemes, Scheme(s))
	}
	s := Sweep{
		Base:      cfg,
		Schemes:   schemes,
		Scenarios: scenarios,
		Field:     r.Field,
		Ns:        r.Ns,
		Axes:      r.Axes,
		Repeats:   r.Repeats,
		Seed:      cfg.Seed,
		FixedSeed: r.FixedSeed,
	}
	// Bad sensor counts, repeats and axes are the request's errors too:
	// refuse them before any field of the expansion builds.
	if _, _, _, _, err := s.resolve(); err != nil {
		return Sweep{}, err
	}
	return s, nil
}

// ServiceOptions tune a deployment service.
type ServiceOptions struct {
	// Workers is the most runs executing at once across the service: the
	// size of the run pool every job's runs execute on (0 = GOMAXPROCS,
	// negative is an error).
	Workers int
	// Jobs is how many jobs dispatch runs at once (default 1). A job
	// stops counting once its last run is handed to a worker, so the next
	// job starts while it finishes; with 1, runs start in submission
	// order across jobs.
	Jobs int
	// CacheSize bounds the fingerprint-keyed result cache's entry count;
	// the least recently used completed entries are evicted beyond it
	// (<= 0 selects the server default of 1024).
	CacheSize int
	// Logger receives the service's structured log records (job
	// lifecycle, HTTP requests); nil discards them.
	Logger *slog.Logger
}

// Service is a deployment server: an HTTP API over an async job queue
// with on-disk persistence and a fingerprint-keyed result cache. Create
// one with NewService and mount Handler on an http.Server.
type Service struct {
	m    *server.Manager
	pool *runPool
}

// NewService opens (or creates) the service's data directory and starts
// its run pool and job dispatch. Jobs interrupted by a previous shutdown
// or crash are re-queued immediately and resume from their stores,
// re-executing only the runs that never finished.
func NewService(dataDir string, opts ServiceOptions) (*Service, error) {
	if opts.Workers < 0 {
		return nil, fmt.Errorf("mobisense: negative worker count %d", opts.Workers)
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	pool := newRunPool(BatchOptions{Workers: opts.Workers}.workers(math.MaxInt))
	m, err := server.NewManager(dataDir, &serviceEngine{pool: pool, log: log}, opts.Jobs, opts.CacheSize)
	if err != nil {
		pool.close()
		return nil, err
	}
	m.SetLogger(opts.Logger)
	return &Service{m: m, pool: pool}, nil
}

// Handler returns the service's HTTP API (see internal/server.NewHandler
// for the route table).
func (s *Service) Handler() http.Handler { return server.NewHandler(s.m) }

// GC prunes finished jobs — and their on-disk stores — older than ttl,
// returning how many were removed. Queued and running jobs are never
// touched. cmd/serve calls this at startup and periodically when
// -jobs-ttl is set.
func (s *Service) GC(ttl time.Duration) int { return s.m.GC(ttl) }

// Close cancels running jobs (finished runs persist and resume on the
// next start) and waits for them and the run pool to stop.
func (s *Service) Close() {
	s.m.Close()
	s.pool.close()
}

// serviceEngine implements internal/server.Engine on the batch runner.
type serviceEngine struct {
	pool *runPool     // every job's runs execute here
	log  *slog.Logger // receives the stacks of runs that panicked
}

// logPanics writes the stack of every run that panicked to the service
// log. The job's result and its store carry only the error.
func (e *serviceEngine) logPanics(job server.ExecJob, runs []BatchResult) {
	for _, br := range runs {
		if br.Stack != nil {
			e.log.Error("run panicked", "store", job.StoreDir, "index", br.Spec.Index, "seed", br.Spec.Seed,
				"err", br.Err, "stack", string(br.Stack))
		}
	}
}

// decodeStrict unmarshals a request body, rejecting unknown fields so
// typos fail loudly instead of silently running the default sweep.
func decodeStrict(raw json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("mobisense: bad request: %w", err)
	}
	return nil
}

// jobPlan is a job's work, planned from its request alone: the runs it
// expands to and the manifest of the store they stream into. Prepare and
// Execute both plan, and the job's cache key is the manifest's hash, so
// the key cannot drift from the store it names.
type jobPlan struct {
	specs    []RunSpec
	manifest istore.Manifest
	store    Store // what the records keep; the job adds Dir and Resume
}

func planJob(kind string, raw json.RawMessage) (jobPlan, error) {
	var p jobPlan
	var req RunRequest
	switch kind {
	case "run":
		if err := decodeStrict(raw, &req); err != nil {
			return p, err
		}
		cfg, err := req.Config()
		if err != nil {
			return p, err
		}
		// The spec carries the scenario name, so the stored record does,
		// exactly like sweep-job records.
		p.specs = []RunSpec{{Scheme: cfg.Scheme, Scenario: req.scenarioName(), N: cfg.N, Seed: cfg.Seed, Config: cfg}}
		p.manifest = istore.Manifest{
			Kind:              "batch",
			Fields:            runFieldEntries(req, cfg),
			ConfigFingerprint: combinedFingerprint(p.specs),
			ShardCount:        1,
			TotalRuns:         1,
		}
	case "sweep":
		var sreq SweepRequest
		if err := decodeStrict(raw, &sreq); err != nil {
			return p, err
		}
		sweep, err := sreq.Sweep()
		if err != nil {
			return p, err
		}
		if p.specs, err = sweep.Expand(); err != nil {
			return p, err
		}
		req = sreq.RunRequest
		p.manifest = sweep.manifest(Shard{}, len(p.specs))
	default:
		return p, fmt.Errorf("mobisense: unknown job kind %q", kind)
	}
	p.store = Store{Layouts: req.StoreLayouts, Trace: req.Trace > 0}
	p.manifest = p.store.mark(p.manifest, p.specs)
	return p, nil
}

func (e *serviceEngine) Prepare(kind string, raw json.RawMessage) (server.Prepared, error) {
	p, err := planJob(kind, raw)
	if err != nil {
		return server.Prepared{}, err
	}
	data, err := json.Marshal(p.manifest)
	if err != nil {
		return server.Prepared{}, fmt.Errorf("mobisense: encode manifest: %w", err)
	}
	h := fnv.New64a()
	h.Write(data)
	return server.Prepared{Fingerprint: fmt.Sprintf("%s-%016x", kind, h.Sum64()), TotalRuns: len(p.specs)}, nil
}

// SweepJobResult is the JSON result summary of a sweep job.
type SweepJobResult struct {
	Runs       int         `json:"runs"`
	Errors     int         `json:"errors,omitempty"`
	Skipped    int         `json:"skipped,omitempty"`
	Aggregates []Aggregate `json:"aggregates"`
}

func (e *serviceEngine) Execute(ctx context.Context, job server.ExecJob) (json.RawMessage, error) {
	p, err := planJob(job.Kind, job.Request)
	if err != nil {
		return nil, err
	}
	p.store.Dir, p.store.Resume = job.StoreDir, job.Resume
	opts := BatchOptions{Store: &p.store, OnProgress: progressAdapter(job.OnProgress), pool: e.pool, dispatched: job.Dispatched}
	runs, err := runSpecs(ctx, p.specs, opts, p.manifest)
	if err != nil {
		return nil, err
	}
	e.logPanics(job, runs)
	if br := runs[0]; job.Kind == "run" {
		if br.Err != nil {
			return nil, br.Err
		}
		// The run's record shape (metrics + optional layouts) is the
		// natural single-run result document.
		return json.Marshal(recordFrom(br.Spec, br.Result, nil, p.store.Layouts))
	}
	sum := SweepJobResult{Aggregates: aggregateRuns(runs)}
	for _, br := range runs {
		switch {
		case br.skipped():
			sum.Skipped++
		case br.Err != nil:
			sum.Errors++
		default:
			sum.Runs++
		}
	}
	return json.Marshal(sum)
}

// runFieldEntries embeds a single-run job's environment spec in its
// store manifest: the registered scenario's spec when one was named, or
// the inline/built field's spec otherwise, so the job store reproduces
// without this server's binary.
func runFieldEntries(req RunRequest, cfg Config) []istore.FieldEntry {
	if name := req.scenarioName(); name != "" {
		sc, _ := LookupScenario(name) // Config has resolved the name
		return []istore.FieldEntry{{Scenario: sc.Name, Spec: sc.Spec}}
	}
	// Cosmetic names stay out of manifests (and therefore out of cache
	// fingerprints); see Sweep.fieldEntries.
	spec := cfg.Field.Spec()
	spec.Name = ""
	return []istore.FieldEntry{{Spec: spec}}
}

// progressAdapter converts batch progress callbacks into server progress
// events, extrapolating the ETA from the live execution rate via the
// shared snapshot helper (replays from a resumed store are excluded from
// the rate, so they don't fake an instant ETA).
func progressAdapter(emit func(server.Progress)) func(done, total int) {
	if emit == nil {
		return nil
	}
	started := time.Now()
	live := 0
	return func(done, total int) {
		live++
		ps := SnapshotProgress(done, total, live, time.Since(started))
		emit(server.Progress{
			Done:      ps.Done,
			Total:     ps.Total,
			ElapsedMS: ps.Elapsed.Milliseconds(),
			EtaMS:     ps.ETA.Milliseconds(),
		})
	}
}

// SchemeInfo and ScenarioInfo are the registry introspection documents
// served by GET /v1/schemes and /v1/scenarios.
type SchemeInfo struct {
	Name string `json:"name"`
}

type ScenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Seeded      bool   `json:"seeded"`
	// Obstacles counts the scenario's fixed obstacles (seeded scenarios
	// add generated ones on top; see the spec's generator).
	Obstacles int `json:"obstacles"`
	// Spec is the scenario's full declarative geometry — fetch it, tweak
	// it, and resubmit it as an inline "field".
	Spec *FieldSpec `json:"spec,omitempty"`
}

func (e *serviceEngine) Schemes() any {
	out := make([]SchemeInfo, 0, 8)
	for _, s := range RegisteredSchemes() {
		out = append(out, SchemeInfo{Name: string(s)})
	}
	return out
}

func (e *serviceEngine) Scenarios() any {
	scs := Scenarios()
	out := make([]ScenarioInfo, 0, len(scs))
	for _, sc := range scs {
		out = append(out, ScenarioInfo{
			Name:        sc.Name,
			Description: sc.Description,
			Seeded:      sc.Spec.Seeded(),
			Obstacles:   len(sc.Spec.Obstacles),
			Spec:        &sc.Spec,
		})
	}
	return out
}

func (e *serviceEngine) Axes() any { return Axes() }

// Traces loads a job's store and aggregates its trace series into
// per-group mean curves (GET /v1/jobs/{id}/traces). The aggregation is
// the same AggregateTraces that cmd/report uses, so the endpoint and the
// CSV export agree byte-for-byte on the numbers.
func (e *serviceEngine) Traces(storeDir string) (any, error) {
	data, err := LoadStores(storeDir)
	if err != nil {
		return nil, err
	}
	return AggregateTraces(data.Runs), nil
}
