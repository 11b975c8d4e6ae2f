package mobisense

import (
	"fmt"
	"os"
	"sync"

	"mobisense/internal/field"
)

// FieldSpec is the declarative, serializable description of a deployment
// environment: rectangular bounds, polygonal obstacles, the base-station
// reference point, and optionally a seeded random-obstacle generator.
// Specs are pure data — every registered scenario is one, stores embed
// them in their manifests, the HTTP API accepts them inline, and
// cmd/deploy loads them from JSON files — so any environment reproduces
// on any machine without the binary that first defined it.
//
// A minimal custom field:
//
//	{
//	  "name": "depot",
//	  "bounds": {"max_x": 800, "max_y": 600},
//	  "obstacles": [{"rect": [150, 100, 350, 250]}]
//	}
//
// The aliased types below (RectSpec, PointSpec, ObstacleSpec,
// GeneratorSpec) compose specs in Go; see the README's Scenarios section
// for the JSON shape.
type FieldSpec = field.Spec

// RectSpec is an axis-aligned rectangle in a field spec.
type RectSpec = field.RectSpec

// PointSpec is a point in a field spec, in meters.
type PointSpec = field.PointSpec

// ObstacleSpec is one obstacle in a field spec: a [x0,y0,x1,y1] Rect
// shorthand or an explicit polygon as Points.
type ObstacleSpec = field.ObstacleSpec

// GeneratorSpec parameterizes a spec's seeded random rectangular
// obstacles (§6.4).
type GeneratorSpec = field.GeneratorSpec

// RectObstacle is shorthand for an axis-aligned rectangular obstacle.
func RectObstacle(x0, y0, x1, y1 float64) ObstacleSpec {
	return ObstacleSpec{Rect: []float64{x0, y0, x1, y1}}
}

// ParseFieldSpec decodes a JSON field spec strictly: unknown fields,
// trailing input and non-normalizable geometry are errors.
func ParseFieldSpec(data []byte) (FieldSpec, error) {
	s, err := field.ParseSpec(data)
	if err != nil {
		return FieldSpec{}, fmt.Errorf("mobisense: %w", err)
	}
	return s, nil
}

// LoadFieldSpecFile reads and parses a field-spec JSON file (the format
// behind deploy/serve's -field flag).
func LoadFieldSpecFile(path string) (FieldSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return FieldSpec{}, fmt.Errorf("mobisense: field spec: %w", err)
	}
	s, err := ParseFieldSpec(data)
	if err != nil {
		return FieldSpec{}, fmt.Errorf("mobisense: field spec %s: %w", path, err)
	}
	return s, nil
}

// BuildFieldSpec constructs a field from a declarative spec; every field
// of a scenario, an inline sweep field, a -field file or a field axis is
// built here. For seeded specs (Generator set) the seed selects the
// generated layout; fixed specs ignore it. Builds are cached by geometry
// fingerprint and seed, so sweeps, paired scheme comparisons and repeated
// service requests share one immutable field (and therefore one coverage
// estimator) instead of re-validating the free space every time. The
// fingerprint leaves the name out, so the returned handle carries the
// requested spec's name itself.
func BuildFieldSpec(spec FieldSpec, seed uint64) (Field, error) {
	if !spec.Seeded() {
		seed = 0
	}
	k := fieldCacheKey{spec.Fingerprint(), seed}
	fieldBuildCache.Lock()
	f, ok := fieldBuildCache.m[k]
	fieldBuildCache.Unlock()
	if !ok {
		// Build outside the lock: validation rasterizes the free space, and
		// a duplicate concurrent build is benign (identical geometry).
		inner, err := spec.Build(seed)
		if err != nil {
			return Field{}, fmt.Errorf("mobisense: field spec: %w", err)
		}
		f = cacheField(k, inner)
	}
	return Field{f: f, name: spec.Name}, nil
}

// cacheField stores a built field under k and returns the cached one,
// which is f unless a concurrent build of the same key got there first.
func cacheField(k fieldCacheKey, f *field.Field) *field.Field {
	fieldBuildCache.Lock()
	defer fieldBuildCache.Unlock()
	if cached, ok := fieldBuildCache.m[k]; ok {
		return cached
	}
	fieldBuildCache.m[k] = f
	fieldBuildCache.order = append(fieldBuildCache.order, k)
	if len(fieldBuildCache.order) > fieldBuildCacheCap {
		delete(fieldBuildCache.m, fieldBuildCache.order[0])
		fieldBuildCache.order = fieldBuildCache.order[1:]
	}
	return f
}

// fieldBuildCache memoizes BuildFieldSpec by geometry fingerprint and
// seed. Building a field rasterizes its free space to check that it is
// connected — pure waste to repeat for the same geometry — and sharing
// the immutable *field.Field also lets the run pool's estimator cache
// share one coverage estimator across every run of that environment. The
// cache is bounded FIFO; a sweep touches few distinct fields, so the
// bound only matters for long-lived services crossing many seeded
// layouts.
const fieldBuildCacheCap = 128

var fieldBuildCache = struct {
	sync.Mutex
	m     map[fieldCacheKey]*field.Field
	order []fieldCacheKey
}{m: map[fieldCacheKey]*field.Field{}}

type fieldCacheKey struct {
	fingerprint string
	seed        uint64
}

// Spec returns the declarative spec describing this field: the spec it
// was built from (scenario registry, BuildFieldSpec, -field files), name
// and generator parameters included, in normal form. A zero Field
// returns a zero spec.
func (fl Field) Spec() FieldSpec {
	if fl.f == nil {
		return FieldSpec{}
	}
	s := fl.f.Spec()
	s.Name = fl.name
	return s
}
