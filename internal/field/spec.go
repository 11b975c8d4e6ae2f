package field

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"

	"mobisense/internal/geom"
)

// Spec is the declarative, serializable description of a deployment field
// (§3.1): rectangular bounds, simple-polygon obstacles, the reference
// point O, and optionally a seeded random-obstacle generator. A Spec is
// pure data — it travels through JSON (store manifests, the HTTP API,
// -field files) and rebuilds the exact same Field on any machine, so an
// experiment's environment is reproducible without the binary that first
// defined it.
type Spec struct {
	// Name optionally labels the spec (registered scenarios carry their
	// registry name here). It is ignored by Build and Fingerprint: two
	// specs with identical geometry are the same field whatever they are
	// called.
	Name string `json:"name,omitempty"`
	// Bounds is the field rectangle.
	Bounds RectSpec `json:"bounds"`
	// Reference is the base-station location O; nil defaults to the
	// lower-left corner of the bounds.
	Reference *PointSpec `json:"reference,omitempty"`
	// Obstacles are the fixed interior obstacles.
	Obstacles []ObstacleSpec `json:"obstacles,omitempty"`
	// Generator, when set, adds seeded random rectangular obstacles to
	// every Build. Specs with a generator are "seeded": the build seed
	// picks the generated layout.
	Generator *GeneratorSpec `json:"generator,omitempty"`
}

// RectSpec is an axis-aligned rectangle in a field spec.
type RectSpec struct {
	MinX float64 `json:"min_x,omitempty"`
	MinY float64 `json:"min_y,omitempty"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

func (r RectSpec) rect() geom.Rect { return geom.R(r.MinX, r.MinY, r.MaxX, r.MaxY) }

// PointSpec is a 2-D point in a field spec, in meters.
type PointSpec struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// ObstacleSpec is one obstacle: either the axis-aligned rectangle
// shorthand Rect ([x0, y0, x1, y1]) or an explicit simple polygon given
// as Points (at least three vertices, either orientation). Normalization
// canonicalizes both forms to counter-clockwise Points.
type ObstacleSpec struct {
	Rect   []float64   `json:"rect,omitempty"`
	Points []PointSpec `json:"points,omitempty"`
}

func (o ObstacleSpec) polygon() geom.Polygon {
	poly := make(geom.Polygon, len(o.Points))
	for i, p := range o.Points {
		poly[i] = geom.V(p.X, p.Y)
	}
	return poly
}

// GeneratorSpec parameterizes seeded random rectangular obstacles (§6.4):
// a uniform count in [MinCount, MaxCount], uniform side lengths in
// [MinSide, MaxSide], a clear radius around the reference point, and a
// salt that domain-separates the random stream (two generators with the
// same seed but different salts produce independent layouts).
type GeneratorSpec struct {
	MinCount  int     `json:"min_count"`
	MaxCount  int     `json:"max_count"`
	MinSide   float64 `json:"min_side"`
	MaxSide   float64 `json:"max_side"`
	KeepClear float64 `json:"keep_clear,omitempty"`
	Salt      uint64  `json:"salt,omitempty"`
}

// ClampedSides returns the side range Build actually samples within a
// w×h field (see RandomObstacleConfig.ClampedSides).
func (g GeneratorSpec) ClampedSides(w, h float64) (minSide, maxSide float64) {
	return g.config().ClampedSides(w, h)
}

func (g GeneratorSpec) config() RandomObstacleConfig {
	return RandomObstacleConfig{
		MinCount:  g.MinCount,
		MaxCount:  g.MaxCount,
		MinSide:   g.MinSide,
		MaxSide:   g.MaxSide,
		KeepClear: g.KeepClear,
	}
}

// Empty reports whether the spec is the zero value — no bounds, no
// geometry, no generator.
func (s Spec) Empty() bool {
	return s.Bounds == (RectSpec{}) && s.Reference == nil &&
		len(s.Obstacles) == 0 && s.Generator == nil
}

// Seeded reports whether Build's output varies with the seed.
func (s Spec) Seeded() bool { return s.Generator != nil }

// Clone returns a deep copy of the spec.
func (s Spec) Clone() Spec {
	out := s
	if s.Reference != nil {
		ref := *s.Reference
		out.Reference = &ref
	}
	if s.Obstacles != nil {
		out.Obstacles = make([]ObstacleSpec, len(s.Obstacles))
		for i, ob := range s.Obstacles {
			out.Obstacles[i] = ObstacleSpec{
				Rect:   append([]float64(nil), ob.Rect...),
				Points: append([]PointSpec(nil), ob.Points...),
			}
		}
	}
	if s.Generator != nil {
		g := *s.Generator
		out.Generator = &g
	}
	return out
}

// Size limits on a spec. Specs arrive from files and HTTP requests, and
// Build's cost grows with the bounds' area (New's free-space check walks
// a connectivityRes grid over them) and with the generated obstacle
// count, so Normalize rejects specs beyond these limits. Both sit far
// above the paper's fields (1000 m square, at most 4 random obstacles).
const (
	// maxSpecCells bounds the free-space check's grid, about 10 km square.
	maxSpecCells = 1 << 22
	// maxGeneratedObstacles bounds a generator's max_count.
	maxGeneratedObstacles = 1 << 10
)

// Normalize validates the spec and returns its canonical form: bounds
// with positive area within maxSpecCells, an explicit reference point
// (defaulting to the lower-left corner), every obstacle as
// counter-clockwise Points with area (Rect shorthands expanded), and
// generator ranges checked. Two specs that normalize equal are the same
// field; fingerprints, manifests and the registry all work on the
// normalized form.
func (s Spec) Normalize() (Spec, error) {
	out := s.Clone()
	b := out.Bounds
	if !(b.MaxX > b.MinX) || !(b.MaxY > b.MinY) {
		return Spec{}, fmt.Errorf("field spec: bounds [%g,%g]×[%g,%g] have no area", b.MinX, b.MaxX, b.MinY, b.MaxY)
	}
	if cells := ((b.MaxX-b.MinX)/connectivityRes + 1) * ((b.MaxY-b.MinY)/connectivityRes + 1); !(cells <= maxSpecCells) {
		return Spec{}, fmt.Errorf("field spec: bounds [%g,%g]×[%g,%g] are too large: %.3g cells of %g m, limit %d",
			b.MinX, b.MaxX, b.MinY, b.MaxY, cells, connectivityRes, maxSpecCells)
	}
	if out.Reference == nil {
		out.Reference = &PointSpec{X: b.MinX, Y: b.MinY}
	}
	for i, ob := range out.Obstacles {
		switch {
		case len(ob.Rect) > 0 && len(ob.Points) > 0:
			return Spec{}, fmt.Errorf("field spec: obstacle %d has both rect and points", i)
		case len(ob.Rect) > 0:
			if len(ob.Rect) != 4 {
				return Spec{}, fmt.Errorf("field spec: obstacle %d rect has %d coordinates, want 4 ([x0,y0,x1,y1])", i, len(ob.Rect))
			}
			out.Obstacles[i] = ObstacleSpec{Points: pointSpecs(geom.R(ob.Rect[0], ob.Rect[1], ob.Rect[2], ob.Rect[3]).Polygon())}
		case len(ob.Points) >= 3:
			out.Obstacles[i] = ObstacleSpec{Points: pointSpecs(out.Obstacles[i].polygon().CCW())}
		default:
			return Spec{}, fmt.Errorf("field spec: obstacle %d has %d vertices, want a rect or at least 3 points", i, len(ob.Points))
		}
		// New rejects the same obstacles; without area, CCW would also
		// flip the vertex order on every pass.
		if abs(out.Obstacles[i].polygon().Area()) < geom.Eps {
			return Spec{}, fmt.Errorf("field spec: obstacle %d: %w", i, ErrDegenerateObstacle)
		}
	}
	if len(out.Obstacles) == 0 {
		out.Obstacles = nil
	}
	if g := out.Generator; g != nil {
		if g.MaxCount < g.MinCount || g.MinCount < 0 {
			return Spec{}, fmt.Errorf("field spec: generator count range [%d,%d] is invalid", g.MinCount, g.MaxCount)
		}
		if g.MaxCount > maxGeneratedObstacles {
			return Spec{}, fmt.Errorf("field spec: generator max_count %d is over the limit of %d", g.MaxCount, maxGeneratedObstacles)
		}
		if g.MinSide <= 0 || g.MaxSide < g.MinSide {
			return Spec{}, fmt.Errorf("field spec: generator side range [%g,%g] is invalid", g.MinSide, g.MaxSide)
		}
	}
	return out, nil
}

// pointSpecs converts a polygon's vertices to spec points.
func pointSpecs(poly geom.Polygon) []PointSpec {
	pts := make([]PointSpec, len(poly))
	for j, v := range poly {
		pts[j] = PointSpec{X: v.X, Y: v.Y}
	}
	return pts
}

// Build constructs the field the spec describes. For seeded specs
// (Generator set) the seed selects the generated obstacle layout; fixed
// specs ignore it. The returned field remembers its originating spec
// (see Field.Spec).
func (s Spec) Build(seed uint64) (*Field, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	bounds := n.Bounds.rect()
	ref := geom.V(n.Reference.X, n.Reference.Y)
	fixed := make([]geom.Polygon, len(n.Obstacles))
	for i, ob := range n.Obstacles {
		fixed[i] = ob.polygon()
	}
	var f *Field
	if g := n.Generator; g != nil {
		rng := rand.New(rand.NewPCG(seed, seed^g.Salt))
		f, err = randomObstaclesIn(rng, bounds, ref, fixed, g.config())
	} else {
		f, err = New(bounds, fixed, WithReference(ref))
	}
	if err != nil {
		return nil, err
	}
	f.spec = &n
	return f, nil
}

// Fingerprint returns a stable hash of the spec's geometry: bounds,
// reference point, normalized obstacles and generator parameters. The
// Name is excluded. Fingerprints survive JSON round trips (float64
// values encode and decode exactly) and identify the computation a field
// participates in, which is what caching and store identity need.
func (s Spec) Fingerprint() string {
	n, err := s.Normalize()
	if err != nil {
		// An invalid spec can never build a field; hash its raw encoding so
		// the fingerprint is still deterministic.
		raw, _ := json.Marshal(s)
		h := fnv.New64a()
		h.Write(raw)
		return fmt.Sprintf("bad-%016x", h.Sum64())
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "b=%g,%g,%g,%g ref=%g,%g",
		n.Bounds.MinX, n.Bounds.MinY, n.Bounds.MaxX, n.Bounds.MaxY,
		n.Reference.X, n.Reference.Y)
	for _, ob := range n.Obstacles {
		io.WriteString(h, " o")
		for _, p := range ob.Points {
			fmt.Fprintf(h, "=%g,%g", p.X, p.Y)
		}
	}
	if g := n.Generator; g != nil {
		fmt.Fprintf(h, " gen=%d,%d,%g,%g,%g,%d",
			g.MinCount, g.MaxCount, g.MinSide, g.MaxSide, g.KeepClear, g.Salt)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ParseSpec decodes a JSON field spec strictly: unknown fields and
// trailing input are errors (a typoed key must not silently become the
// default geometry), and the spec must normalize.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("field spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("field spec: trailing data after the spec object")
	}
	if _, err := s.Normalize(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Spec returns the spec describing this field. Fields built from a Spec
// return that spec (generator parameters included); fields built directly
// from geometry return an extraction of their bounds, reference and
// obstacles. The result is always normalized.
func (f *Field) Spec() Spec {
	if f.spec != nil {
		return f.spec.Clone()
	}
	s := Spec{
		Bounds: RectSpec{
			MinX: f.bounds.Min.X, MinY: f.bounds.Min.Y,
			MaxX: f.bounds.Max.X, MaxY: f.bounds.Max.Y,
		},
		Reference: &PointSpec{X: f.reference.X, Y: f.reference.Y},
	}
	for _, ob := range f.obstacles {
		s.Obstacles = append(s.Obstacles, ObstacleSpec{Points: pointSpecs(ob)})
	}
	return s
}
