package mobisense

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	ifield "mobisense/internal/field"
	"mobisense/internal/geom"
	istore "mobisense/internal/store"
)

// specTestConfig is a small, fast config for spec-equivalence runs.
func specTestConfig() Config {
	cfg := DefaultConfig(SchemeFLOOR)
	cfg.N = 20
	cfg.Duration = 60
	return cfg
}

// runOn executes the test config on f with timing cleared, so results
// compare bit for bit.
func runOn(t *testing.T, f Field) Result {
	t.Helper()
	cfg := specTestConfig()
	cfg.Field = f
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Clear the volatile parts: wall-clock time, and the internal field
	// handle (two identical geometries are distinct instances).
	res.Elapsed = 0
	res.fieldRef = nil
	return res
}

// TestScenarioSpecsMatchLegacyBuilders is the field-spec refactor's
// acceptance test: every built-in scenario, rebuilt from its encoded
// (JSON round-tripped) spec, must produce bit-identical run metrics to
// the pre-spec code builder for that environment. The legacy builders
// are frozen here as geometry literals. New spec-only scenarios compare
// the registry build against an uncached rebuild from the encoded spec
// instead.
func TestScenarioSpecsMatchLegacyBuilders(t *testing.T) {
	const seed = 7
	square := geom.R(0, 0, 1000, 1000)
	rects := func(bounds geom.Rect, rs ...geom.Rect) func() (*ifield.Field, error) {
		return func() (*ifield.Field, error) {
			polys := make([]geom.Polygon, len(rs))
			for i, r := range rs {
				polys[i] = r.Polygon()
			}
			return ifield.New(bounds, polys)
		}
	}
	generated := func(salt uint64, cfg ifield.RandomObstacleConfig) func() (*ifield.Field, error) {
		return func() (*ifield.Field, error) {
			return ifield.RandomObstacles(rand.New(rand.NewPCG(seed, seed^salt)), cfg)
		}
	}
	legacy := map[string]func() (*ifield.Field, error){
		"free":          rects(square),
		"two-obstacles": rects(square, geom.R(500, 40, 550, 500), geom.R(120, 500, 450, 550)),
		"corridor":      rects(square, geom.R(150, 200, 1000, 260), geom.R(0, 450, 850, 510), geom.R(150, 700, 1000, 760)),
		"campus": rects(geom.R(0, 0, 800, 600),
			geom.R(150, 100, 350, 250), geom.R(450, 100, 650, 250), geom.R(250, 350, 550, 480)),
		"random-obstacles": generated(0xabcdef12345,
			ifield.RandomObstacleConfig{MinCount: 1, MaxCount: 4, MinSide: 80, MaxSide: 400, KeepClear: 30}),
		"disaster": generated(0x6d0b15a7e9c3,
			ifield.RandomObstacleConfig{MinCount: 3, MaxCount: 6, MinSide: 60, MaxSide: 250, KeepClear: 30}),
	}

	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			if sc.Spec.Empty() {
				t.Fatalf("built-in scenario %q is not expressed as a spec", sc.Name)
			}
			// Encode → decode → build, bypassing the build cache so the
			// comparison exercises a genuine reconstruction.
			data, err := json.Marshal(sc.Spec)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := ParseFieldSpec(data)
			if err != nil {
				t.Fatal(err)
			}
			inner, err := decoded.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			fromSpec := runOn(t, Field{f: inner})

			build := legacy[sc.Name]
			if build == nil {
				// Spec-only scenario: the registry build is the reference.
				f, err := BuildScenario(sc.Name, seed)
				if err != nil {
					t.Fatal(err)
				}
				if ref := runOn(t, f); !reflect.DeepEqual(ref, fromSpec) {
					t.Errorf("registry and encoded-spec builds diverge:\nregistry: %+v\nspec:     %+v", ref, fromSpec)
				}
				return
			}
			f, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if ref := runOn(t, Field{f: f}); !reflect.DeepEqual(ref, fromSpec) {
				t.Errorf("legacy builder and encoded spec diverge:\nlegacy: %+v\nspec:   %+v", ref, fromSpec)
			}
		})
	}
}

// TestSweepInlineFieldStoreReproducible: a sweep over an inline custom
// field embeds the spec in its store manifest, and the embedded spec
// alone — no scenario registry entry, no spec file — rebuilds the exact
// environment and reproduces the stored metrics.
func TestSweepInlineFieldStoreReproducible(t *testing.T) {
	spec := FieldSpec{
		Name:   "test-depot",
		Bounds: RectSpec{MaxX: 900, MaxY: 700},
		Obstacles: []ObstacleSpec{
			RectObstacle(300, 150, 500, 350),
			{Points: []PointSpec{{X: 600, Y: 100}, {X: 780, Y: 120}, {X: 690, Y: 300}}},
		},
	}
	base := specTestConfig()
	built, err := BuildFieldSpec(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	base.Field = built

	dir := filepath.Join(t.TempDir(), "store")
	s := Sweep{Base: base, Field: &spec, Repeats: 2, Seed: 5}
	want, err := s.Run(context.Background(), BatchOptions{Store: &Store{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}

	// The manifest embeds the normalized spec.
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"fields"`) {
		t.Fatalf("manifest has no embedded field specs:\n%s", raw)
	}

	// "Foreign machine": load the store, take the embedded spec, rebuild
	// the field, and re-run the first record's combination.
	data, err := LoadStores(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Stores[0].Fields) != 1 || data.Stores[0].Fields[0].Scenario != "" {
		t.Fatalf("loaded store fields = %+v", data.Stores[0].Fields)
	}
	embedded := data.Stores[0].Fields[0].Spec
	if embedded.Fingerprint() != spec.Fingerprint() {
		t.Fatalf("embedded spec fingerprint %s != source %s", embedded.Fingerprint(), spec.Fingerprint())
	}
	rebuilt, err := BuildFieldSpec(embedded, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := specTestConfig()
	cfg.Field = rebuilt
	cfg.Seed = want.Runs[0].Spec.Seed
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != want.Runs[0].Result.Coverage || res.Messages != want.Runs[0].Result.Messages {
		t.Errorf("re-run from embedded spec diverged: cov %v vs %v", res.Coverage, want.Runs[0].Result.Coverage)
	}

	// Resume of the spec-backed store executes nothing.
	executed := 0
	if _, err := s.Run(context.Background(), BatchOptions{
		Store:      &Store{Dir: dir, Resume: true},
		OnProgress: func(int, int) { executed++ },
	}); err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Errorf("resume executed %d runs, want 0", executed)
	}

	// A name-only (pre-spec) manifest still resumes: strip the fields
	// section and retry.
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "fields")
	stripped, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	executed = 0
	if _, err := s.Run(context.Background(), BatchOptions{
		Store:      &Store{Dir: dir, Resume: true},
		OnProgress: func(int, int) { executed++ },
	}); err != nil {
		t.Fatalf("name-only manifest no longer resumes: %v", err)
	}
	if executed != 0 {
		t.Errorf("name-only resume executed %d runs, want 0", executed)
	}
}

// TestSweepScenarioManifestEmbedsSpecs: scenario sweeps record each
// scenario's registered spec in the manifest, keyed by name.
func TestSweepScenarioManifestEmbedsSpecs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := Sweep{Base: specTestConfig(), Scenarios: []string{"free", "narrow-door"}, Seed: 3}
	if _, err := s.Run(context.Background(), BatchOptions{Store: &Store{Dir: dir}}); err != nil {
		t.Fatal(err)
	}
	m, _, err := istore.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Fields) != 2 {
		t.Fatalf("manifest fields = %+v, want 2 entries", m.Fields)
	}
	byName := map[string]FieldSpec{}
	for _, fe := range m.Fields {
		byName[fe.Scenario] = fe.Spec
	}
	if door, ok := byName["narrow-door"]; !ok || len(door.Obstacles) != 2 {
		t.Errorf("narrow-door spec not embedded: %+v", byName)
	}
	if free, ok := byName["free"]; !ok || free.Bounds.MaxX != 1000 {
		t.Errorf("free spec not embedded: %+v", byName)
	}
}

// TestSweepFieldScenarioExclusive: a sweep may vary scenarios or supply
// one inline field, not both.
func TestSweepFieldScenarioExclusive(t *testing.T) {
	spec := FieldSpec{Bounds: RectSpec{MaxX: 500, MaxY: 500}}
	s := Sweep{Base: specTestConfig(), Scenarios: []string{"free"}, Field: &spec}
	if _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "both") {
		t.Errorf("Expand with Scenarios and Field should error, got %v", err)
	}
}

// TestScenarioBuildCache: seeded scenario builds are cached per
// (scenario, seed) — repeated expansions and paired scheme comparisons
// share one generated field instead of re-running the generator.
func TestScenarioBuildCache(t *testing.T) {
	const name = "random-obstacles"
	f1, err := BuildScenario(name, 31)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := BuildScenario(name, 31)
	if err != nil {
		t.Fatal(err)
	}
	if f1.f != f2.f {
		t.Error("cache returned distinct field instances for one (scenario, seed)")
	}
	f3, err := BuildScenario(name, 32)
	if err != nil {
		t.Fatal(err)
	}
	if f3.f == f1.f {
		t.Error("a new seed returned the cached field of another seed")
	}

	// A two-scheme paired sweep over the seeded scenario: expanding twice
	// (the server expands once to fingerprint and once to execute) returns
	// the same field instances, one per repeat, shared by both schemes.
	s := Sweep{
		Base:      specTestConfig(),
		Schemes:   []Scheme{SchemeCPVF, SchemeFLOOR},
		Scenarios: []string{name},
		Repeats:   2,
		Seed:      9,
	}
	first, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	perRepeat := map[int]*ifield.Field{}
	for i, sp := range first {
		f := sp.Config.Field.f
		if second[i].Config.Field.f != f {
			t.Errorf("run %d: re-expansion built a new field", i)
		}
		if prev, ok := perRepeat[sp.Repeat]; ok && prev != f {
			t.Errorf("run %d: schemes of repeat %d deploy into different fields", i, sp.Repeat)
		}
		perRepeat[sp.Repeat] = f
	}
	if len(perRepeat) != 2 || perRepeat[0] == perRepeat[1] {
		t.Errorf("want one distinct field per repeat, got %d", len(perRepeat))
	}
}

// TestBuildFieldSpecCachesUnseeded: fixed-geometry specs ignore the seed
// in the cache key, so every seed maps to the single shared instance.
func TestBuildFieldSpecCachesUnseeded(t *testing.T) {
	spec := FieldSpec{Bounds: RectSpec{MaxX: 640, MaxY: 480}}
	a, err := BuildFieldSpec(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildFieldSpec(spec, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.f != b.f {
		t.Error("unseeded spec builds should share one instance across seeds")
	}
}

// TestFieldSpecKeepsRequestedName: specs that differ only in name share
// one cached field, and so one coverage estimator, yet each handle's
// Spec reports the name it was built with, whichever name built the
// cached field first.
func TestFieldSpecKeepsRequestedName(t *testing.T) {
	free := ObstacleFreeField()
	scenario, err := BuildScenario("free", 1)
	if err != nil {
		t.Fatal(err)
	}
	depot, err := BuildFieldSpec(FieldSpec{Name: "depot", Bounds: RectSpec{MaxX: 1000, MaxY: 1000}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if scenario.f != free.f || depot.f != free.f {
		t.Error("specs that differ only in name built distinct fields")
	}
	for _, tc := range []struct {
		f    Field
		want string
	}{{free, ""}, {scenario, "free"}, {depot, "depot"}} {
		if got := tc.f.Spec().Name; got != tc.want {
			t.Errorf("Spec().Name = %q, want %q", got, tc.want)
		}
	}
}

// TestManifestIgnoresSpecName: the cosmetic spec "name" must not enter
// sweep identity — renaming a spec file stays a cache hit and resumes
// the same store.
func TestManifestIgnoresSpecName(t *testing.T) {
	mk := func(name string) Sweep {
		spec := FieldSpec{Name: name, Bounds: RectSpec{MaxX: 600, MaxY: 600}}
		base := specTestConfig()
		f, err := BuildFieldSpec(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		base.Field = f
		return Sweep{Base: base, Field: &spec, Repeats: 1, Seed: 5}
	}
	a := mk("alpha").manifest(Shard{}, 1)
	b := mk("beta").manifest(Shard{}, 1)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("manifests differ on the cosmetic spec name:\n%+v\n%+v", a, b)
	}
	// A renamed spec resumes the other name's store.
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := mk("alpha").Run(context.Background(), BatchOptions{Store: &Store{Dir: dir}}); err != nil {
		t.Fatal(err)
	}
	executed := 0
	if _, err := mk("beta").Run(context.Background(), BatchOptions{
		Store:      &Store{Dir: dir, Resume: true},
		OnProgress: func(int, int) { executed++ },
	}); err != nil {
		t.Fatalf("renamed spec no longer resumes: %v", err)
	}
	if executed != 0 {
		t.Errorf("renamed spec re-executed %d runs, want 0", executed)
	}
}

// TestGeneratorClampsToSmallBounds: a generator tuned for the standard
// field applied to a small custom one clamps its side range to the
// bounds instead of sampling obstacle corners outside the field.
func TestGeneratorClampsToSmallBounds(t *testing.T) {
	spec := FieldSpec{
		Bounds:    RectSpec{MaxX: 300, MaxY: 300},
		Generator: &GeneratorSpec{MinCount: 1, MaxCount: 2, MinSide: 80, MaxSide: 400, KeepClear: 20},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		f, err := BuildFieldSpec(spec, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, ob := range f.Spec().Obstacles {
			for _, p := range ob.Points {
				if p.X < 0 || p.X > 300 || p.Y < 0 || p.Y > 300 {
					t.Fatalf("seed %d obstacle %d vertex %+v outside the 300 m bounds", seed, i, p)
				}
			}
		}
	}
}
