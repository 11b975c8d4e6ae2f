package mobisense

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"mobisense/internal/geom"
)

func TestTraceSamplesCollected(t *testing.T) {
	cfg := quickConfig(SchemeCPVF)
	cfg.Trace = &TraceOptions{Stride: 10}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Samples at t = 0, 10, ..., Duration inclusive.
	want := int(cfg.Duration/10) + 1
	if len(res.Trace) != want {
		t.Fatalf("trace has %d samples, want %d", len(res.Trace), want)
	}
	for i, s := range res.Trace {
		if s.Time != float64(i)*10 {
			t.Fatalf("sample %d at t=%g, want %g", i, s.Time, float64(i)*10)
		}
		if s.Coverage <= 0 || s.Coverage > 1 {
			t.Fatalf("sample %d coverage = %g", i, s.Coverage)
		}
		if s.Alive != cfg.N {
			t.Fatalf("sample %d alive = %d, want %d", i, s.Alive, cfg.N)
		}
		if s.Connected < 0 || s.Connected > s.Alive {
			t.Fatalf("sample %d connected = %d", i, s.Connected)
		}
		if s.MaxMoved > s.TotalMoved {
			t.Fatalf("sample %d max %g > total %g", i, s.MaxMoved, s.TotalMoved)
		}
	}
	// Cumulative distance is monotone over the run.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].TotalMoved < res.Trace[i-1].TotalMoved {
			t.Fatalf("total moved decreased at sample %d", i)
		}
	}
	last := res.Trace[len(res.Trace)-1]
	if got := last.TotalMoved / float64(cfg.N); !almostEq(got, res.AvgMoveDistance) {
		t.Errorf("final trace distance %g != result %g", got, res.AvgMoveDistance)
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestTraceDoesNotPerturbRun is the trace subsystem's core contract: the
// sampler is a pure observer, so a traced run must produce bit-identical
// metrics and layouts to the same run untraced.
func TestTraceDoesNotPerturbRun(t *testing.T) {
	for _, s := range []Scheme{SchemeCPVF, SchemeFLOOR} {
		plain, err := Run(quickConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		// Layout snapshots copy state the sampler already reads, so they
		// must be exactly as RNG-silent as the scalar telemetry.
		for _, layouts := range []bool{false, true} {
			cfg := quickConfig(s)
			cfg.Trace = &TraceOptions{Stride: 1, Layouts: layouts}
			traced, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Coverage != traced.Coverage || plain.AvgMoveDistance != traced.AvgMoveDistance ||
				plain.Messages != traced.Messages || plain.ConvergenceTime != traced.ConvergenceTime {
				t.Errorf("%s (layouts=%t): tracing changed run metrics", s, layouts)
			}
			if !reflect.DeepEqual(plain.Positions, traced.Positions) {
				t.Errorf("%s (layouts=%t): tracing changed the final layout", s, layouts)
			}
		}
	}
}

func TestTraceDefaultStrideIsPeriod(t *testing.T) {
	cfg := quickConfig(SchemeCPVF)
	cfg.Duration = 20
	cfg.Trace = &TraceOptions{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(cfg.Duration/cfg.Period) + 1; len(res.Trace) != want {
		t.Fatalf("trace has %d samples, want %d (period default)", len(res.Trace), want)
	}
}

func TestStoreTraceRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cfg := quickConfig(SchemeCPVF)
	cfg.Duration = 30
	cfg.Trace = &TraceOptions{Stride: 10}
	sw := Sweep{Base: cfg, Repeats: 2}

	res, err := sw.Run(context.Background(), BatchOptions{
		Workers: 2,
		Store:   &Store{Dir: dir, Trace: true},
	})
	if err != nil {
		t.Fatal(err)
	}

	data, err := LoadStores(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Runs) != 2 {
		t.Fatalf("loaded %d runs, want 2", len(data.Runs))
	}
	for i, br := range data.Runs {
		if len(br.Result.Trace) == 0 {
			t.Fatalf("run %d replayed without its trace", i)
		}
		if !reflect.DeepEqual(br.Result.Trace, res.Runs[i].Result.Trace) {
			t.Fatalf("run %d trace did not survive the round trip", i)
		}
	}

	// Resuming the store without the trace flag must be refused: a store
	// is uniformly traced or untraced.
	_, err = sw.Run(context.Background(), BatchOptions{
		Store: &Store{Dir: dir, Resume: true},
	})
	if err == nil {
		t.Fatal("resume across a trace-flag change was accepted")
	}
}

func TestUntracedStoreOmitsTraceFlag(t *testing.T) {
	// Untraced stores must keep writing byte-identical manifests and
	// records: the trace fields are omitempty and the config fingerprint
	// only changes when tracing is on.
	cfg := quickConfig(SchemeVOR)
	a, b := configFingerprint(cfg), configFingerprint(cfg)
	if a != b {
		t.Fatal("fingerprint not deterministic")
	}
	cfg.Trace = &TraceOptions{Stride: 5}
	traced := configFingerprint(cfg)
	if traced == a {
		t.Fatal("trace stride not covered by the config fingerprint")
	}
	// The layouts marker appends only when set, so traced fingerprints
	// from before the snapshot option stay stable.
	cfg.Trace.Layouts = true
	if configFingerprint(cfg) == traced {
		t.Fatal("layout snapshots not covered by the config fingerprint")
	}
	withLayouts := configFingerprint(cfg)
	// LayoutStride <= 1 means "every sample" — identical stored bytes, so
	// it must not perturb the fingerprint; thinning (> 1) must.
	cfg.Trace.LayoutStride = 1
	if configFingerprint(cfg) != withLayouts {
		t.Fatal("layout stride 1 changed the fingerprint of an identical store")
	}
	cfg.Trace.LayoutStride = 4
	if configFingerprint(cfg) == withLayouts {
		t.Fatal("layout thinning not covered by the config fingerprint")
	}
}

// TestTraceLayoutStride checks layout decimation: scalar telemetry keeps
// full stride resolution while Layout snapshots land only on every
// LayoutStride-th sample.
func TestTraceLayoutStride(t *testing.T) {
	full := quickConfig(SchemeCPVF)
	full.Trace = &TraceOptions{Stride: 10, Layouts: true}
	fullRes, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}

	cfg := quickConfig(SchemeCPVF)
	cfg.Trace = &TraceOptions{Stride: 10, Layouts: true, LayoutStride: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != len(fullRes.Trace) {
		t.Fatalf("thinning layouts changed the sample count: %d vs %d", len(res.Trace), len(fullRes.Trace))
	}
	for i, s := range res.Trace {
		f := fullRes.Trace[i]
		if i%3 == 0 {
			if !reflect.DeepEqual(s.Layout, f.Layout) {
				t.Fatalf("sample %d: kept layout differs from the unthinned run", i)
			}
			if len(s.Layout) == 0 {
				t.Fatalf("sample %d: layout missing on a stride boundary", i)
			}
		} else if s.Layout != nil {
			t.Fatalf("sample %d: layout captured between stride boundaries", i)
		}
		s.Layout, f.Layout = nil, nil
		if !reflect.DeepEqual(s, f) {
			t.Fatalf("sample %d: thinning layouts perturbed scalar telemetry", i)
		}
	}

	bad := quickConfig(SchemeCPVF)
	bad.Trace = &TraceOptions{Stride: 10, LayoutStride: -1}
	if _, err := Run(bad); err == nil {
		t.Fatal("negative layout stride was accepted")
	}
	bad.Trace = &TraceOptions{Stride: 10, LayoutStride: 2}
	if _, err := Run(bad); err == nil {
		t.Fatal("layout stride without Layouts was accepted")
	}
}

// TestTraceCoverageMatchesFullScan pins the trace sampler's incremental
// coverage tracker to the full scan. The traced runs are long enough for
// the fleet to settle and keep losing sensors, so syncs apply single
// moves and kills incrementally as well as re-seeding. Every sample's
// coverage must equal Estimator.Fraction of the layout captured with it,
// and the result's final coverage the full scans of its positions.
func TestTraceCoverageMatchesFullScan(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCPVF, SchemeFLOOR} {
		for _, scenario := range []string{"narrow-door", "random-obstacles"} {
			t.Run(fmt.Sprintf("%s/%s", scheme, scenario), func(t *testing.T) {
				cfg := sweepConfig()
				cfg.Scheme = scheme
				cfg.N = 40
				cfg.Duration = 400
				fl, err := BuildScenario(scenario, 5)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Field = fl
				cfg.Trace = &TraceOptions{Stride: 3, Layouts: true}
				cfg.Failures = &FailureOptions{Interval: 13, MaxKills: 12}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				est := cfg.estimatorFor(fl.internal())
				vecs := func(pts []Point) []geom.Vec {
					out := make([]geom.Vec, len(pts))
					for i, p := range pts {
						out[i] = geom.V(p.X, p.Y)
					}
					return out
				}
				for _, s := range res.Trace {
					if want := est.Fraction(vecs(s.Layout), cfg.Rs); s.Coverage != want {
						t.Fatalf("t=%g: traced coverage %v, full scan %v", s.Time, s.Coverage, want)
					}
				}
				final := vecs(res.Positions)
				if want := est.Fraction(final, cfg.Rs); res.Coverage != want {
					t.Errorf("final coverage %v, full scan %v", res.Coverage, want)
				}
				if want := est.KFraction(final, cfg.Rs, 2); res.Coverage2 != want {
					t.Errorf("final 2-coverage %v, full scan %v", res.Coverage2, want)
				}
			})
		}
	}
}
