package mobisense

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mobisense/internal/coverage"
	ifield "mobisense/internal/field"
	"mobisense/internal/geom"
)

// sweepConfig is a small, fast base config for batch tests.
func sweepConfig() Config {
	cfg := DefaultConfig(SchemeFLOOR)
	cfg.N = 30
	cfg.Duration = 90
	cfg.Rc = 60
	cfg.Rs = 40
	return cfg
}

// stripVolatile clears the fields that legitimately vary between
// executions (wall-clock timing); everything else must be identical.
func stripVolatile(runs []BatchResult) []BatchResult {
	out := append([]BatchResult(nil), runs...)
	for i := range out {
		out[i].Result.Elapsed = 0
		out[i].Spec.Config = Config{}
	}
	return out
}

// TestSweepDeterministicAcrossWorkers is the acceptance check for the
// batch runner: the same sweep at workers=1 and workers=GOMAXPROCS must
// produce identical per-run results and identical aggregates.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	sweep := Sweep{
		Base:      sweepConfig(),
		Schemes:   []Scheme{SchemeCPVF, SchemeFLOOR, SchemeOPT},
		Scenarios: []string{"free", "two-obstacles", "random-obstacles"},
		Ns:        []int{20, 30},
		Repeats:   2,
		Seed:      42,
	}
	seq, err := sweep.Run(context.Background(), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// max(4, GOMAXPROCS) keeps the parallel leg genuinely concurrent even
	// on single-core machines.
	par, err := sweep.Run(context.Background(), BatchOptions{Workers: max(4, runtime.GOMAXPROCS(0))})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Runs) != 3*3*2*2 {
		t.Fatalf("runs = %d, want %d", len(seq.Runs), 3*3*2*2)
	}
	if !reflect.DeepEqual(stripVolatile(seq.Runs), stripVolatile(par.Runs)) {
		t.Error("per-run results differ between workers=1 and parallel")
	}
	if !reflect.DeepEqual(seq.Aggregates, par.Aggregates) {
		t.Errorf("aggregates differ between workers=1 and parallel:\nseq: %+v\npar: %+v",
			seq.Aggregates, par.Aggregates)
	}
}

// TestSweepMixedRace exercises a mixed scheme×scenario sweep with progress
// reporting under the race detector.
func TestSweepMixedRace(t *testing.T) {
	sweep := Sweep{
		Base:      sweepConfig(),
		Schemes:   []Scheme{SchemeCPVF, SchemeFLOOR, SchemeVOR, SchemeMinimax, SchemeOPT},
		Scenarios: []string{"free", "corridor", "campus", "disaster"},
		Repeats:   2,
		Seed:      7,
	}
	var mu sync.Mutex
	var last int
	sr, err := sweep.Run(context.Background(), BatchOptions{OnProgress: func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if done != last+1 || total != 5*4*2 {
			t.Errorf("progress (%d, %d) after %d", done, total, last)
		}
		last = done
	}})
	if err != nil {
		t.Fatal(err)
	}
	if last != len(sr.Runs) {
		t.Errorf("progress reached %d of %d", last, len(sr.Runs))
	}
	for _, br := range sr.Runs {
		// The VD baselines reject obstacle fields by design (§6.4); those
		// failures must surface as per-run errors, not kill the batch.
		vd := br.Spec.Scheme == SchemeVOR || br.Spec.Scheme == SchemeMinimax
		if vd && br.Spec.Scenario != "free" {
			if br.Err == nil {
				t.Errorf("%s on %s should reject obstacles", br.Spec.Scheme, br.Spec.Scenario)
			}
			continue
		}
		if br.Err != nil {
			t.Errorf("%s on %s repeat %d: %v", br.Spec.Scheme, br.Spec.Scenario, br.Spec.Repeat, br.Err)
		}
	}
	if len(sr.Aggregates) != 5*4 {
		t.Errorf("aggregates = %d, want %d", len(sr.Aggregates), 5*4)
	}
}

func TestSweepPairsSeededScenarioFields(t *testing.T) {
	sweep := Sweep{
		Base:      sweepConfig(),
		Schemes:   []Scheme{SchemeCPVF, SchemeFLOOR},
		Scenarios: []string{"random-obstacles"},
		Repeats:   2,
		Seed:      3,
	}
	specs, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Runs of different schemes with the same repeat share the same
	// generated field (paired comparison); different repeats do not.
	byKey := map[[2]interface{}]Field{}
	for _, sp := range specs {
		k := [2]interface{}{sp.Scheme, sp.Repeat}
		byKey[k] = sp.Config.Field
	}
	same := byKey[[2]interface{}{SchemeCPVF, 0}].internal() == byKey[[2]interface{}{SchemeFLOOR, 0}].internal()
	if !same {
		t.Error("repeat 0 fields differ across schemes")
	}
	if byKey[[2]interface{}{SchemeCPVF, 0}].internal() == byKey[[2]interface{}{SchemeCPVF, 1}].internal() {
		t.Error("different repeats share one seeded field")
	}
}

func TestSweepSeedsAreStable(t *testing.T) {
	sweep := Sweep{
		Base:    sweepConfig(),
		Schemes: []Scheme{SchemeCPVF, SchemeFLOOR},
		Repeats: 3,
		Seed:    9,
	}
	a, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	perScheme := map[Scheme]map[uint64]bool{}
	byRepeat := map[int]uint64{}
	for i := range a {
		if a[i].Seed != b[i].Seed {
			t.Fatalf("run %d seed not stable: %d vs %d", i, a[i].Seed, b[i].Seed)
		}
		// Repeats within one scheme must not collide.
		seen := perScheme[a[i].Scheme]
		if seen == nil {
			seen = map[uint64]bool{}
			perScheme[a[i].Scheme] = seen
		}
		if seen[a[i].Seed] {
			t.Fatalf("run %d reuses seed %d within scheme %s", i, a[i].Seed, a[i].Scheme)
		}
		seen[a[i].Seed] = true
		// The scheme axis is excluded from derivation: every scheme of one
		// repeat shares a seed (paired initial layouts).
		if prev, ok := byRepeat[a[i].Repeat]; ok {
			if prev != a[i].Seed {
				t.Errorf("repeat %d seeds differ across schemes: %d vs %d", a[i].Repeat, prev, a[i].Seed)
			}
		} else {
			byRepeat[a[i].Repeat] = a[i].Seed
		}
	}
}

func TestRunBatchReportsPerRunErrors(t *testing.T) {
	good := sweepConfig()
	bad := sweepConfig()
	bad.Scheme = "bogus"
	out, err := RunBatch(context.Background(), []Config{good, bad}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil {
		t.Errorf("good run failed: %v", out[0].Err)
	}
	if out[1].Err == nil {
		t.Error("bogus scheme should fail")
	}
}

func TestSweepUnknownScenario(t *testing.T) {
	sweep := Sweep{Base: sweepConfig(), Scenarios: []string{"atlantis"}}
	if _, err := sweep.Run(context.Background(), BatchOptions{}); err == nil {
		t.Error("unknown scenario should error")
	}
}

// TestBatchEmptyAndInvalidInputs covers the explicit guards against
// silently degenerate batches.
func TestBatchEmptyAndInvalidInputs(t *testing.T) {
	ctx := context.Background()
	if _, err := RunBatch(ctx, nil, BatchOptions{}); err == nil {
		t.Error("RunBatch with no configs should error")
	}
	if _, err := RunBatch(ctx, []Config{}, BatchOptions{}); err == nil {
		t.Error("RunBatch with empty config slice should error")
	}
	if _, err := RunBatch(ctx, []Config{sweepConfig()}, BatchOptions{Workers: -1}); err == nil {
		t.Error("negative Workers should error")
	}
	if _, err := RunBatch(ctx, []Config{sweepConfig()}, BatchOptions{Shard: Shard{Index: 2, Count: 2}}); err == nil {
		t.Error("out-of-range shard should error")
	}
	if _, err := RunBatch(ctx, []Config{sweepConfig()}, BatchOptions{Shard: Shard{Index: -1, Count: 2}}); err == nil {
		t.Error("negative shard index should error")
	}

	if _, err := (Sweep{}).Expand(); err == nil {
		t.Error("zero-value sweep (no scheme) should error")
	}
	if _, err := (Sweep{Base: Config{Scheme: SchemeFLOOR}}).Expand(); err == nil {
		t.Error("sweep with N=0 should error")
	}
	if _, err := (Sweep{Base: sweepConfig(), Ns: []int{30, 0}}).Expand(); err == nil {
		t.Error("sweep with a non-positive N axis value should error")
	}
	if _, err := (Sweep{Base: sweepConfig(), Schemes: []Scheme{SchemeFLOOR, ""}}).Expand(); err == nil {
		t.Error("sweep with an empty scheme axis value should error")
	}
	if _, err := (Sweep{Base: sweepConfig(), Repeats: -1}).Expand(); err == nil {
		t.Error("sweep with negative repeats should error")
	}
	// The defaults still work: a sweep over just the base config is one run.
	specs, err := (Sweep{Base: sweepConfig()}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Errorf("default expansion = %d specs, want 1", len(specs))
	}
}

func TestParseShard(t *testing.T) {
	for spec, want := range map[string]Shard{
		"":    {},
		"0/1": {Index: 0, Count: 1},
		"1/2": {Index: 1, Count: 2},
		"3/8": {Index: 3, Count: 8},
	} {
		got, err := ParseShard(spec)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %+v, %v; want %+v", spec, got, err, want)
		}
	}
	for _, spec := range []string{"0/0", "0/-5", "-1/2", "2/2", "1/2x", "x/2", "1", "1/", "/2", "1/2/3"} {
		if _, err := ParseShard(spec); err == nil {
			t.Errorf("ParseShard(%q) should error", spec)
		}
	}
}

// TestRunBatchCancellation checks that cancelling the context aborts
// dispatch while keeping every finished run's result.
func TestRunBatchCancellation(t *testing.T) {
	cfgs := make([]Config, 8)
	for i := range cfgs {
		cfgs[i] = sweepConfig()
		cfgs[i].Seed = uint64(i + 1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	finished := 0
	out, err := RunBatch(ctx, cfgs, BatchOptions{
		Workers: 1,
		OnProgress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			finished = done
			if done == 2 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled batch should return the context error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	done, skipped := 0, 0
	for _, br := range out {
		switch {
		case br.Err == nil:
			done++
		case errors.Is(br.Err, context.Canceled):
			skipped++
		default:
			t.Errorf("unexpected error: %v", br.Err)
		}
	}
	if done < 2 || skipped == 0 || done+skipped != len(cfgs) {
		t.Errorf("done=%d skipped=%d of %d (finished callback saw %d)", done, skipped, len(cfgs), finished)
	}
	// Finished runs must carry real results.
	if out[0].Err != nil || out[0].Result.Coverage <= 0 {
		t.Errorf("first run should have completed: %+v", out[0])
	}
}

func TestSchemeRegistry(t *testing.T) {
	got := RegisteredSchemes()
	want := []Scheme{SchemeCPVF, SchemeFLOOR, SchemeMinimax, SchemeOPT, SchemeVOR}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RegisteredSchemes() = %v, want %v", got, want)
	}
}

func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	for _, want := range []string{"free", "two-obstacles", "random-obstacles", "corridor",
		"campus", "disaster", "narrow-door", "l-shaped", "random-field"} {
		sc, ok := LookupScenario(want)
		if !ok {
			t.Errorf("scenario %q missing (have %v)", want, names)
			continue
		}
		if sc.Spec.Empty() {
			t.Errorf("scenario %q has no declarative spec", want)
		}
		f, err := BuildScenario(want, 5)
		if err != nil {
			t.Errorf("build %q: %v", want, err)
			continue
		}
		if w, h := f.Bounds(); w <= 0 || h <= 0 {
			t.Errorf("%q bounds = %v×%v", want, w, h)
		}
	}
	for alias, target := range map[string]string{"obstacle-free": "free", "random": "random-obstacles", "maze": "corridor"} {
		sc, ok := LookupScenario(alias)
		if !ok || sc.Name != target {
			t.Errorf("alias %q should resolve to %q, got %q (ok=%v)", alias, target, sc.Name, ok)
		}
	}
}

// TestScenariosRunnable deploys a small FLOOR network in every registered
// scenario, confirming each environment is a valid connected field.
func TestScenariosRunnable(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			f, err := BuildScenario(sc.Name, 11)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sweepConfig()
			cfg.Duration = 60
			cfg.Field = f
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Coverage <= 0 {
				t.Errorf("coverage = %v", res.Coverage)
			}
		})
	}
}

func TestStabilizeExtendsRun(t *testing.T) {
	cfg := sweepConfig()
	cfg.Duration = 30
	cfg.Stabilize = &StabilizeOptions{Cap: 400, Chunk: 100}
	stable, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 30 sensors spreading over 1 km² are nowhere near settled after 30 s,
	// so stabilization must keep the run moving past the nominal horizon.
	if stable.ConvergenceTime <= cfg.Duration {
		t.Errorf("stabilized run stopped moving at %v s, within the %v s horizon",
			stable.ConvergenceTime, cfg.Duration)
	}
	if stable.Coverage <= 0 {
		t.Errorf("coverage = %v", stable.Coverage)
	}
}

// TestEstimatorCacheLRU: a pool's estimator cache answers a repeated
// (field, resolution) with the same estimator, keys on both, and keeps
// the estimatorCacheCap most recently used, evicting the least recently
// used one.
func TestEstimatorCacheLRU(t *testing.T) {
	fields := make([]*ifield.Field, estimatorCacheCap+1)
	for i := range fields {
		fields[i] = ifield.MustNew(geom.R(0, 0, 100+float64(i), 100), nil)
	}
	var c estimatorCache
	ests := make(map[*ifield.Field]*coverage.Estimator)
	for _, f := range fields[:estimatorCacheCap] {
		ests[f] = c.get(f, 5)
	}
	if c.get(fields[0], 5) != ests[fields[0]] {
		t.Fatal("a repeated (field, resolution) built a new estimator")
	}
	if c.get(fields[2], 10) == ests[fields[2]] {
		t.Fatal("another resolution shared the estimator")
	}
	// Full: (fields[2], 10) evicted fields[1], the least recently used;
	// fields[0] was refreshed by its repeat.
	if len(c.entries) != estimatorCacheCap {
		t.Fatalf("cache holds %d estimators, want %d", len(c.entries), estimatorCacheCap)
	}
	if c.get(fields[0], 5) != ests[fields[0]] {
		t.Error("the recently used estimator was evicted")
	}
	if c.get(fields[1], 5) == ests[fields[1]] {
		t.Error("the least recently used estimator survived")
	}
}
