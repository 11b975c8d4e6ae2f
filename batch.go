package mobisense

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mobisense/internal/coverage"
	"mobisense/internal/field"
	"mobisense/internal/stats"
	istore "mobisense/internal/store"
)

// The batch subsystem executes many independent deployments on a worker
// pool. The paper's evaluation is exactly this shape — Figure 13 alone
// averages 300 random-obstacle runs — and every run is deterministic given
// its config, so a sweep produces identical results at any worker count.
//
// Batches are cancellable (the context stops dispatching new runs while
// every in-flight run finishes), persistable (a Store streams each finished
// run to disk), resumable (runs already in the store are replayed instead
// of re-executed) and shardable across machines (a Shard selects a
// deterministic subset of the expansion; cmd/report merges shard stores).

// BatchOptions tune RunBatch and Sweep.Run.
type BatchOptions struct {
	// Workers is the worker-pool size; 1 runs sequentially, 0 defaults to
	// GOMAXPROCS, and negative values are an error.
	Workers int
	// OnProgress, if set, is called after each completed run with the
	// number done so far and the total. Calls are serialized. Runs replayed
	// from a store count as already done.
	OnProgress func(done, total int)
	// Store, if set, persists every finished run to disk and — when
	// Store.Resume is set — skips runs whose records are already present.
	Store *Store
	// Shard restricts execution to a deterministic subset of the runs for
	// cross-machine sharding; the zero value runs everything.
	Shard Shard

	// pool, when set, executes the runs instead of a pool made for the
	// call, and Workers is ignored. A Service shares one across its jobs.
	pool *runPool
	// dispatched, when set, is called once every run has been handed to
	// a pool worker, or dispatch stopped on cancellation.
	dispatched func()
}

func (o BatchOptions) workers(jobs int) int {
	w := o.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// Shard identifies one slice of a sweep: runs whose expansion index is
// congruent to Index modulo Count. Count <= 1 means no sharding.
type Shard struct {
	Index, Count int
}

func (sh Shard) validate() error {
	if sh.Count <= 1 && sh.Index == 0 {
		return nil
	}
	if sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
		return fmt.Errorf("mobisense: invalid shard %d/%d (want 0 <= index < count)", sh.Index, sh.Count)
	}
	return nil
}

// count normalizes Count for manifests (0 → 1).
func (sh Shard) count() int {
	if sh.Count < 1 {
		return 1
	}
	return sh.Count
}

// ParseShard parses the CLI shard syntax "i/n" ("" = no sharding). Unlike
// the zero Shard value, an explicit spec must be well-formed: n >= 1 and
// 0 <= i < n, with no trailing input.
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{}, nil
	}
	idx, cnt, ok := strings.Cut(s, "/")
	var sh Shard
	var err1, err2 error
	if ok {
		sh.Index, err1 = strconv.Atoi(idx)
		sh.Count, err2 = strconv.Atoi(cnt)
	}
	if !ok || err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("mobisense: bad shard %q: want \"i/n\", e.g. 0/4", s)
	}
	if sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
		return Shard{}, fmt.Errorf("mobisense: bad shard %q: want 0 <= i < n", s)
	}
	return sh, nil
}

// filter keeps the specs belonging to this shard, preserving their global
// expansion indices so merged shards reproduce the unsharded order.
func (sh Shard) filter(specs []RunSpec) []RunSpec {
	if sh.Count <= 1 {
		return specs
	}
	out := make([]RunSpec, 0, (len(specs)+sh.Count-1)/sh.Count)
	for _, sp := range specs {
		if sp.Index%sh.Count == sh.Index {
			out = append(out, sp)
		}
	}
	return out
}

// RunSpec identifies one expanded run of a batch or sweep.
type RunSpec struct {
	// Index is the run's position in the full batch or sweep expansion
	// (results keep this order; shards keep their global indices).
	Index int
	// Scheme, Scenario, N and Repeat are the sweep axis values that
	// produced this run (Scenario is "" when the config's field was given
	// directly, Repeat is 0 for plain batches).
	Scheme   Scheme
	Scenario string
	N        int
	Repeat   int
	// Axes are the run's generalized axis assignments (Sweep.Axes), in
	// axis order; nil for plain batches and axis-free sweeps.
	Axes []AxisValue
	// Seed is the run's derived seed.
	Seed uint64
	// Config is the fully expanded configuration.
	Config Config
}

// BatchResult pairs one run's spec with its outcome. Runs skipped by a
// context cancellation carry the context's error; runs replayed from a
// store carry the stored metrics (but not layouts).
type BatchResult struct {
	Spec   RunSpec
	Result Result
	Err    error
	// Stack is the goroutine stack of a run that panicked, whose Err then
	// reads "mobisense: run panicked: <value>"; nil otherwise. It never
	// reaches the store, so stores stay byte-identical across worker
	// counts.
	Stack []byte
}

// skipped reports whether this run was never executed (batch cancelled).
func (br BatchResult) skipped() bool {
	return errors.Is(br.Err, context.Canceled) || errors.Is(br.Err, context.DeadlineExceeded)
}

// RunBatch executes the given configs on a worker pool and returns the
// results in input order. Per-run failures are reported in the
// corresponding BatchResult, never as a panic. Runs sharing a field and
// coverage resolution share one coverage estimator.
//
// Cancelling the context stops dispatching new runs; in-flight runs finish
// (and reach the store, if any) and the remaining results carry the
// context's error, which is also returned.
func RunBatch(ctx context.Context, cfgs []Config, opts BatchOptions) ([]BatchResult, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("mobisense: RunBatch with no configs")
	}
	specs := make([]RunSpec, len(cfgs))
	for i, cfg := range cfgs {
		specs[i] = RunSpec{
			Index:  i,
			Scheme: cfg.Scheme,
			N:      cfg.N,
			Seed:   cfg.Seed,
			Config: cfg,
		}
	}
	// The fingerprint covers the full config list — not just this shard's
	// slice — so every shard of one batch shares a manifest identity and
	// cmd/report will merge their stores. It is only worth hashing when a
	// store will actually record it.
	var m istore.Manifest
	if opts.Store != nil {
		m = opts.Store.mark(istore.Manifest{
			Kind:              "batch",
			ConfigFingerprint: combinedFingerprint(specs),
			ShardIndex:        opts.Shard.Index,
			ShardCount:        opts.Shard.count(),
		}, specs)
	}
	specs = opts.Shard.filter(specs)
	m.TotalRuns = len(specs)
	return runSpecs(ctx, specs, opts, m)
}

// mark records in a store manifest what the store's records keep: layouts,
// trace series, and whether any run snapshots layouts into its trace, so
// readers know whether the records can drive a replay. specs is the whole
// expansion, not one shard's slice, so every shard marks alike.
func (st *Store) mark(m istore.Manifest, specs []RunSpec) istore.Manifest {
	m.Layouts = st.Layouts
	m.Trace = st.Trace
	m.TraceLayouts = st.Trace && slices.ContainsFunc(specs, func(sp RunSpec) bool {
		return sp.Config.Trace != nil && sp.Config.Trace.Layouts
	})
	return m
}

// runSpecs is the one executor behind RunBatch, Sweep.Run and the
// service: it dispatches the specs' runs, in order, onto opts.pool or onto
// a pool made for the call. The specs' Index fields address the full
// expansion; the slice itself holds only this shard's runs.
func runSpecs(ctx context.Context, specs []RunSpec, opts BatchOptions, m istore.Manifest) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("mobisense: negative worker count %d", opts.Workers)
	}
	if err := opts.Shard.validate(); err != nil {
		return nil, err
	}
	out := make([]BatchResult, len(specs))
	sess, err := opts.Store.begin(m)
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		// A legitimately empty shard still leaves a (complete, zero-run)
		// store behind so the merge workflow sees every shard.
		if sess != nil {
			if err := sess.close(); err != nil {
				return out, err
			}
		}
		return out, nil
	}

	// Partition into replayed (already in the store) and live runs. toRun
	// holds positions into specs; a live run's position in toRun is its
	// deterministic dispatch sequence number, which the store writer uses
	// to keep the on-disk order independent of the worker count.
	toRun := make([]int, 0, len(specs))
	for i, sp := range specs {
		if sess != nil {
			if rec, ok := sess.lookup(sp); ok {
				out[i] = replayedResult(sp, rec)
				continue
			}
		}
		toRun = append(toRun, i)
	}

	pool := opts.pool
	if pool == nil {
		pool = newRunPool(opts.workers(len(toRun)))
		defer pool.close()
	}
	var running sync.WaitGroup
	var progressMu sync.Mutex
	done := len(specs) - len(toRun)
	run := func(seq int) {
		defer running.Done()
		i := toRun[seq]
		cfg := specs[i].Config
		cfg.estimators = pool.estimators
		start := time.Now()
		res, stack, err := runIsolated(cfg)
		out[i] = BatchResult{Spec: specs[i], Result: res, Err: err, Stack: stack}
		if sess != nil {
			sess.append(seq, specs[i], res, err, time.Since(start))
		}
		if opts.OnProgress != nil {
			progressMu.Lock()
			done++
			opts.OnProgress(done, len(specs))
			progressMu.Unlock()
		}
	}
	// Dispatch in order; once the context is cancelled no further run
	// starts, but every dispatched run completes, so the store never holds
	// a torn batch.
	dispatched := 0
dispatch:
	for seq := range toRun {
		select {
		case <-ctx.Done():
			break dispatch
		default:
		}
		running.Add(1)
		select {
		case pool.tasks <- func() { run(seq) }:
			dispatched++
		case <-ctx.Done():
			running.Done()
			break dispatch
		}
	}
	if opts.dispatched != nil {
		opts.dispatched()
	}
	running.Wait()
	for _, i := range toRun[dispatched:] {
		out[i] = BatchResult{Spec: specs[i], Err: ctx.Err()}
	}

	if sess != nil {
		if err := sess.close(); err != nil {
			return out, err
		}
	}
	return out, ctx.Err()
}

// runPool executes runs on a fixed set of worker goroutines, each run as
// it is handed over. RunBatch and Sweep.Run make one per call; a Service
// keeps one for its lifetime, so its jobs share the workers and the
// coverage estimators.
type runPool struct {
	tasks      chan func()
	estimators *estimatorCache
	wg         sync.WaitGroup
	closeOnce  sync.Once
}

func newRunPool(workers int) *runPool {
	p := &runPool{tasks: make(chan func()), estimators: &estimatorCache{}}
	for range workers {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// close stops the workers once every dispatched run has finished. Runs
// must not be dispatched after it.
func (p *runPool) close() {
	p.closeOnce.Do(func() { close(p.tasks) })
	p.wg.Wait()
}

// runIsolated is Run with a panic contained to its run: the panic
// becomes the run's error and its stack is returned beside it, so one bad
// run (a scheme tripping World.BeginStep's speed limit, say) fails alone
// instead of killing the process that runs the batch.
func runIsolated(cfg Config) (res Result, stack []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			runsFailed.Inc()
			res, stack, err = Result{}, debug.Stack(), fmt.Errorf("mobisense: run panicked: %v", v)
		}
	}()
	res, err = Run(cfg)
	return res, nil, err
}

// Sweep describes a cross-product experiment: every combination of
// scheme × scenario × sensor count × generalized axis values, repeated
// Repeats times. Each run gets a deterministic seed derived from the base
// seed and its axis indices, so the expansion — and therefore every
// result — is independent of worker count and execution order. The scheme
// axis is excluded from seed derivation: all schemes of one
// (scenario, N, repeat, axis combination) share a seed and hence an
// identical initial layout, making scheme comparisons paired.
type Sweep struct {
	// Base is the config template; the axes below override its Scheme,
	// Field, N and Seed per run.
	Base Config
	// Schemes to run (default: just Base.Scheme).
	Schemes []Scheme
	// Scenarios are registry names (see ScenarioNames). Empty keeps
	// Base.Field (or Field, below) for every run. Unseeded scenarios are
	// built once and shared; seeded ones are rebuilt per repeat with a
	// seed derived from the scenario and repeat only, so every scheme and
	// N sees the same sequence of generated environments (paired
	// comparisons).
	Scenarios []string
	// Field is an inline declarative environment used when Scenarios is
	// empty: the custom-field counterpart of a scenario name (deploy
	// -field, the serve API's inline "field"). Seeded specs (generator
	// set) derive one layout per repeat exactly like seeded scenarios;
	// fixed specs build once. Setting both Field and Scenarios is an
	// error.
	Field *FieldSpec
	// Ns are sensor counts (default: just Base.N).
	Ns []int
	// Axes are generalized parameter dimensions folded into the
	// cross-product: communication/sensing ranges, speed, scheme options,
	// the environment — each a built-in axis (see Axes) by name with its
	// values. Axis names must be unique within one sweep.
	Axes []AxisSpec
	// Repeats is the number of seeds per combination (default 1).
	Repeats int
	// Seed is the base seed for derivation (default Base.Seed, then 1).
	Seed uint64
	// FixedSeed gives every run the base seed verbatim instead of a
	// per-combination derived seed. The paper's parameter studies
	// (Figures 9, 10, 12, Table 1) are this shape: one fixed initial
	// deployment, one knob varied — pairing every axis point, not just
	// every scheme. Seeded scenario fields still derive per repeat.
	FixedSeed bool
}

// Domain-separation tags for deriveSeed.
const (
	seedDomainRun = iota + 1
	seedDomainField
)

// resolve computes the sweep's effective axis values (defaults applied)
// and validates them: empty axis entries, non-positive sensor counts and
// axes the table refuses are explicit errors rather than silent
// zero-length, degenerate or default-valued sweeps.
func (s Sweep) resolve() (schemes []Scheme, ns []int, repeats int, base uint64, err error) {
	schemes = s.Schemes
	if len(schemes) == 0 {
		schemes = []Scheme{s.Base.Scheme}
	}
	for _, sc := range schemes {
		if sc == "" {
			return nil, nil, 0, 0, fmt.Errorf("mobisense: sweep has an empty scheme (set Sweep.Schemes or Base.Scheme)")
		}
	}
	ns = s.Ns
	if len(ns) == 0 {
		ns = []int{s.Base.N}
	}
	for _, n := range ns {
		if n <= 0 {
			return nil, nil, 0, 0, fmt.Errorf("mobisense: sweep has non-positive sensor count %d (set Sweep.Ns or Base.N)", n)
		}
	}
	seen := make(map[string]bool, len(s.Axes))
	for _, ax := range s.Axes {
		if err := ax.check(); err != nil {
			return nil, nil, 0, 0, err
		}
		if seen[ax.Name] {
			return nil, nil, 0, 0, fmt.Errorf("mobisense: sweep has duplicate axis %q", ax.Name)
		}
		seen[ax.Name] = true
	}
	repeats = s.Repeats
	if repeats < 0 {
		return nil, nil, 0, 0, fmt.Errorf("mobisense: negative sweep repeats %d", s.Repeats)
	}
	if repeats == 0 {
		repeats = 1
	}
	base = s.Seed
	if base == 0 {
		base = s.Base.Seed
	}
	if base == 0 {
		base = 1
	}
	return schemes, ns, repeats, base, nil
}

// Expand materializes the sweep's cross-product into run specs, building
// scenario fields as needed.
func (s Sweep) Expand() ([]RunSpec, error) {
	schemes, ns, repeats, base, err := s.resolve()
	if err != nil {
		return nil, err
	}

	// Each slot is one value of the environment axis: a registry
	// scenario's spec, an inline field spec, or (nil spec, no name) the
	// base config's field.
	type slot struct {
		name string
		spec *FieldSpec
	}
	var scenarios []slot
	if len(s.Scenarios) == 0 {
		if s.Field != nil {
			spec, err := s.Field.Normalize()
			if err != nil {
				return nil, fmt.Errorf("mobisense: sweep field: %w", err)
			}
			scenarios = []slot{{spec: &spec}}
		} else {
			scenarios = []slot{{}}
		}
	} else {
		if s.Field != nil {
			return nil, fmt.Errorf("mobisense: sweep sets both Scenarios and an inline Field; pick one environment axis")
		}
		for _, name := range s.Scenarios {
			sc, ok := LookupScenario(name)
			if !ok {
				return nil, fmt.Errorf("mobisense: unknown scenario %q (have %v)", name, ScenarioNames())
			}
			scenarios = append(scenarios, slot{name: sc.Name, spec: &sc.Spec})
		}
	}

	// Pre-build each slot's fields: one shared field for unseeded specs,
	// one per repeat for seeded ones. The build cache deduplicates across
	// repeated expansions (the server expands once to fingerprint a job
	// and again to execute it) and across sweeps.
	fields := make([][]Field, len(scenarios))
	for ci, sl := range scenarios {
		if sl.spec == nil {
			fields[ci] = []Field{s.Base.Field}
			continue
		}
		n := 1
		if sl.spec.Seeded() {
			n = repeats
		}
		fields[ci] = make([]Field, n)
		for r := 0; r < n; r++ {
			f, err := BuildFieldSpec(*sl.spec, deriveSeed(base, seedDomainField, uint64(ci), uint64(r)))
			if err != nil {
				if sl.name == "" {
					return nil, fmt.Errorf("mobisense: sweep field repeat %d: %w", r, err)
				}
				return nil, fmt.Errorf("mobisense: scenario %q repeat %d: %w", sl.name, r, err)
			}
			fields[ci][r] = f
		}
	}

	combos := 1
	for _, ax := range s.Axes {
		combos *= ax.size()
	}
	specs := make([]RunSpec, 0, len(schemes)*len(scenarios)*len(ns)*repeats*combos)
	for _, scheme := range schemes {
		for ci, sl := range scenarios {
			for ni, n := range ns {
				for r := 0; r < repeats; r++ {
					// Enumerate every axis-value combination with an
					// odometer over the axis indices, the last axis
					// innermost. With no axes this is one iteration and
					// the derived seeds reduce to the pre-axis
					// (scenario, N, repeat) derivation, so existing
					// sweeps — and their stores — expand unchanged.
					idx := make([]int, len(s.Axes))
					for {
						cfg := s.Base
						cfg.Scheme = scheme
						cfg.N = n
						// The environment seed of this (scenario, repeat)
						// slot — the seed its field was (or would be) built
						// with. Field-rebuilding axis setters use it so
						// regenerated environments stay paired across
						// schemes, Ns and the other axes.
						cfg.fieldSeed = deriveSeed(base, seedDomainField, uint64(ci), uint64(r))
						if s.FixedSeed {
							cfg.Seed = base
						} else {
							parts := make([]uint64, 0, 4+len(idx))
							parts = append(parts, seedDomainRun, uint64(ci), uint64(ni), uint64(r))
							for _, ai := range idx {
								parts = append(parts, uint64(ai))
							}
							cfg.Seed = deriveSeed(base, parts...)
						}
						if len(fields[ci]) > 1 {
							cfg.Field = fields[ci][r]
						} else {
							cfg.Field = fields[ci][0]
						}
						// Apply axes last: setters see the fully resolved
						// scheme, field, N and seed.
						var axes []AxisValue
						if len(s.Axes) > 0 {
							axes = make([]AxisValue, len(s.Axes))
							for a, ax := range s.Axes {
								axes[a] = ax.value(idx[a])
								builtinAxes[ax.Name].set(&cfg, axes[a])
							}
						}
						specs = append(specs, RunSpec{
							Index:    len(specs),
							Scheme:   scheme,
							Scenario: sl.name,
							N:        n,
							Repeat:   r,
							Axes:     axes,
							Seed:     cfg.Seed,
							Config:   cfg,
						})
						a := len(idx) - 1
						for ; a >= 0; a-- {
							idx[a]++
							if idx[a] < s.Axes[a].size() {
								break
							}
							idx[a] = 0
						}
						if a < 0 {
							break
						}
					}
				}
			}
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("mobisense: sweep expands to no runs")
	}
	return specs, nil
}

// manifest describes this sweep (and the selected shard of it) for a
// persistent store.
func (s Sweep) manifest(sh Shard, totalRuns int) istore.Manifest {
	schemes, ns, repeats, base, err := s.resolve()
	if err != nil {
		// Run validates via Expand before building the manifest.
		panic(err)
	}
	names := make([]string, len(schemes))
	for i, sc := range schemes {
		names[i] = string(sc)
	}
	// scenarios stays nil (not empty) when the sweep has none: omitempty
	// drops it from the manifest JSON, and the reloaded manifest must
	// DeepEqual this one for resume to be accepted.
	var scenarios []string
	for _, name := range s.Scenarios {
		if sc, ok := LookupScenario(name); ok {
			name = sc.Name
		}
		scenarios = append(scenarios, name)
	}
	// Generalized axes are recorded by name and value list: the name
	// picks the one setter, so two sweeps sharing an axis name, its values
	// and the base fingerprint are the same computation, which is all
	// resume compatibility needs. Axis-free sweeps leave the field empty,
	// so their manifests stay byte-identical to pre-axis stores.
	var axes []istore.Axis
	for _, ax := range s.Axes {
		axes = append(axes, ax.stored())
	}
	return istore.Manifest{
		Kind: "sweep",
		Sweep: istore.SweepAxes{
			Schemes:   names,
			Scenarios: scenarios,
			Ns:        ns,
			Axes:      axes,
			Repeats:   repeats,
			Seed:      base,
			FixedSeed: s.FixedSeed,
		},
		Fields:            s.fieldEntries(),
		ConfigFingerprint: configFingerprint(s.Base),
		ShardIndex:        sh.Index,
		ShardCount:        sh.count(),
		TotalRuns:         totalRuns,
	}
}

// fieldEntries collects the sweep's environment geometry as declarative
// specs for the store manifest: one entry per scenario (its registered
// spec) or one for the inline/base field. A store carrying them is
// reproducible on a machine that has neither the originating binary nor
// the -field file. Manifests written before the field-spec refactor have
// no entries at all, and resume tolerates their absence.
func (s Sweep) fieldEntries() []istore.FieldEntry {
	if len(s.Scenarios) > 0 {
		var out []istore.FieldEntry
		for _, name := range s.Scenarios {
			sc, _ := LookupScenario(name) // Expand has resolved every name
			out = append(out, istore.FieldEntry{Scenario: sc.Name, Spec: sc.Spec})
		}
		return out
	}
	var spec FieldSpec
	switch {
	case s.Field != nil:
		n, err := s.Field.Normalize()
		if err != nil {
			return nil
		}
		spec = n
	case s.Base.Field.internal() != nil:
		spec = s.Base.Field.Spec()
	default:
		return nil
	}
	// The manifest is hashed into the sweep's cache fingerprint and
	// compared for resume/merge compatibility, and the contract is that
	// geometry — not names — decides identity: renaming a spec file's
	// cosmetic "name" must stay a cache hit. Scenario entries carry their
	// identity in FieldEntry.Scenario; the custom entry carries none.
	spec.Name = ""
	return []istore.FieldEntry{{Spec: spec}}
}

// Run expands the sweep and executes it on a worker pool, returning the
// per-run results (in expansion order) and per-combination aggregates.
// Cancelling the context stops dispatching new runs and returns the
// partial result alongside the context's error; with a Store attached the
// finished runs persist, so re-running with Store.Resume picks up exactly
// where the cancelled sweep stopped.
func (s Sweep) Run(ctx context.Context, opts BatchOptions) (SweepResult, error) {
	specs, err := s.Expand()
	if err != nil {
		return SweepResult{}, err
	}
	all := specs
	specs = opts.Shard.filter(specs)
	var m istore.Manifest
	if opts.Store != nil {
		m = opts.Store.mark(s.manifest(opts.Shard, len(specs)), all)
	}
	runs, err := runSpecs(ctx, specs, opts, m)
	return SweepResult{Runs: runs, Aggregates: aggregateRuns(runs)}, err
}

// SweepResult holds a sweep's per-run outcomes and aggregated summaries.
type SweepResult struct {
	Runs       []BatchResult
	Aggregates []Aggregate
}

// MetricSummary is the mean/CI summary of one metric over a group of
// runs. The JSON form feeds the deployment server's aggregate responses.
type MetricSummary struct {
	// N is the number of samples.
	N int `json:"n"`
	// Mean and StdDev are the sample mean and standard deviation.
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"std_dev"`
	// CI95 is the half-width of the normal-approximation 95% confidence
	// interval of the mean.
	CI95 float64 `json:"ci95"`
	// Min and Max are the sample range.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

func metricSummary(xs []float64) MetricSummary {
	s := stats.Summarize(xs)
	return MetricSummary{N: s.N, Mean: s.Mean, StdDev: s.StdDev, CI95: s.CI95, Min: s.Min, Max: s.Max}
}

// Aggregate summarizes all runs of one (scheme, scenario, N, axis tuple)
// combination.
type Aggregate struct {
	Scheme   Scheme `json:"scheme"`
	Scenario string `json:"scenario,omitempty"`
	N        int    `json:"n"`
	// Axes are the group's generalized axis assignments (empty for
	// axis-free sweeps and plain batches).
	Axes []AxisValue `json:"axes,omitempty"`
	// Runs and Errors count the successful and failed runs; Skipped counts
	// runs never executed because the batch was cancelled.
	Runs    int `json:"runs"`
	Errors  int `json:"errors,omitempty"`
	Skipped int `json:"skipped,omitempty"`
	// Metric summaries over the successful runs.
	Coverage        MetricSummary `json:"coverage"`
	Coverage2       MetricSummary `json:"coverage2"`
	AvgMoveDistance MetricSummary `json:"avg_move_distance"`
	Messages        MetricSummary `json:"messages"`
	ConvergenceTime MetricSummary `json:"convergence_time"`
	// ConnectedFraction is the fraction of successful runs whose final
	// layout was fully connected.
	ConnectedFraction float64 `json:"connected_fraction"`
	// Convergence summarizes the trace-derived convergence metrics of the
	// group's traced runs; nil when no run carried a trace.
	Convergence *ConvergenceAggregate `json:"convergence,omitempty"`
}

// aggregateRuns groups runs by (scheme, scenario, N, axis tuple) in
// first-seen order and summarizes each group. The axis tuple is part of
// the key so runs that differ in any varied config parameter — two rc
// values, two TTLs — land in separate rows instead of silently averaging
// into one. Iterating in run-index order makes the output bit-identical
// regardless of how many workers executed the batch.
func aggregateRuns(runs []BatchResult) []Aggregate {
	type key struct {
		scheme   Scheme
		scenario string
		n        int
		axes     string
	}
	var order []key
	groups := map[key][]BatchResult{}
	axesOf := map[key][]AxisValue{}
	for _, r := range runs {
		k := key{r.Spec.Scheme, r.Spec.Scenario, r.Spec.N, istore.AxesString(r.Spec.Axes)}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
			axesOf[k] = r.Spec.Axes
		}
		groups[k] = append(groups[k], r)
	}
	out := make([]Aggregate, 0, len(order))
	for _, k := range order {
		agg := Aggregate{Scheme: k.scheme, Scenario: k.scenario, N: k.n, Axes: axesOf[k]}
		var cov, cov2, dist, msgs, conv []float64
		connected := 0
		for _, r := range groups[k] {
			if r.skipped() {
				agg.Skipped++
				continue
			}
			if r.Err != nil {
				agg.Errors++
				continue
			}
			agg.Runs++
			cov = append(cov, r.Result.Coverage)
			cov2 = append(cov2, r.Result.Coverage2)
			dist = append(dist, r.Result.AvgMoveDistance)
			msgs = append(msgs, float64(r.Result.Messages))
			conv = append(conv, r.Result.ConvergenceTime)
			if r.Result.Connected {
				connected++
			}
		}
		agg.Coverage = metricSummary(cov)
		agg.Coverage2 = metricSummary(cov2)
		agg.AvgMoveDistance = metricSummary(dist)
		agg.Messages = metricSummary(msgs)
		agg.ConvergenceTime = metricSummary(conv)
		if agg.Runs > 0 {
			agg.ConnectedFraction = float64(connected) / float64(agg.Runs)
		}
		agg.Convergence = aggregateConvergence(groups[k])
		out = append(out, agg)
	}
	return out
}

// deriveSeed mixes the base seed with axis indices through splitmix64 so
// every run of a sweep gets a stable, well-distributed seed that does not
// depend on execution order.
func deriveSeed(base uint64, parts ...uint64) uint64 {
	h := splitmix64(base)
	for _, p := range parts {
		h = splitmix64(h ^ splitmix64(p+0x9e3779b97f4a7c15))
	}
	return h
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// estimatorCache shares one coverage.Estimator per (field, resolution)
// across the runs of a pool: rebuilding the free-space mask per run is
// pure waste in sweeps, and a service meets the same fields job after
// job. The shared geometry (free-space mask, bounds) is immutable after
// construction and the mutable query scratch and trackers live in
// internal pools, so concurrent use is safe. It keeps the
// estimatorCacheCap most recently used estimators, so a pool that
// outlives many fields holds a bounded amount of memory.
type estimatorCache struct {
	mu      sync.Mutex
	entries []estimatorEntry // least recently used first
}

const estimatorCacheCap = 32

type estimatorEntry struct {
	f   *field.Field
	res float64
	est *coverage.Estimator
}

func (c *estimatorCache) get(f *field.Field, res float64) *coverage.Estimator {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e.f == f && e.res == res {
			copy(c.entries[i:], c.entries[i+1:])
			c.entries[len(c.entries)-1] = e
			return e.est
		}
	}
	if len(c.entries) == estimatorCacheCap {
		c.entries = append(c.entries[:0], c.entries[1:]...)
	}
	e := estimatorEntry{f, res, coverage.NewEstimator(f, res)}
	c.entries = append(c.entries, e)
	return e.est
}
