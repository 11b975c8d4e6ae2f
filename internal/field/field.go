// Package field models the 2-D sensing field of the paper (§3.1): a
// rectangular region containing an arbitrary number of simple-polygon
// obstacles, possibly overlapping, as long as the free space remains
// connected. The area outside the field is represented by four "frame"
// obstacles so that motion planning treats the field boundary exactly like
// an obstacle boundary (this also realizes FLOOR's "the y axis is regarded
// as a wall-like obstacle", §5.2).
package field

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"mobisense/internal/geom"
)

// Validation errors returned by New.
var (
	ErrDegenerateObstacle = errors.New("field: obstacle has fewer than 3 vertices or zero area")
	ErrDisconnected       = errors.New("field: obstacles partition the free space")
	ErrBlockedReference   = errors.New("field: reference point is inside an obstacle")
)

// frameThickness is how far the out-of-field frame obstacles extend beyond
// the field bounds. Any positive value works; planners never travel that far
// outside.
const frameThickness = 200.0

// connectivityRes is the grid resolution (meters) used to verify that the
// free space is connected.
const connectivityRes = 5.0

// Field is an immutable description of the deployment area.
type Field struct {
	bounds    geom.Rect
	obstacles []geom.Polygon // interior obstacles, CCW
	all       []geom.Polygon // obstacles followed by the 4 frame polygons, CCW
	solidBB   []geom.Rect    // bounding box per solid, same order as all
	accel     *accel         // segment acceleration structure (see accel.go)
	reference geom.Vec       // base station / reference point O
	spec      *Spec          // originating spec, when built from one (normalized)
}

// Option customizes field construction.
type Option func(*options)

type options struct {
	reference     geom.Vec
	skipValidate  bool
	validationRes float64
}

// WithReference sets the reference point O (base station location).
// It defaults to the lower-left corner of the bounds.
func WithReference(p geom.Vec) Option {
	return func(o *options) { o.reference = p }
}

// WithoutValidation skips the free-space connectivity check. Intended for
// tests that construct deliberately broken fields.
func WithoutValidation() Option {
	return func(o *options) { o.skipValidate = true }
}

// WithValidationResolution overrides the grid resolution used by the
// connectivity check.
func WithValidationResolution(res float64) Option {
	return func(o *options) { o.validationRes = res }
}

// New constructs a Field with the given bounds and obstacles. Obstacles are
// normalized to counter-clockwise orientation. New verifies that the free
// space is connected and that the reference point is free.
func New(bounds geom.Rect, obstacles []geom.Polygon, opts ...Option) (*Field, error) {
	o := options{reference: bounds.Min, validationRes: connectivityRes}
	for _, fn := range opts {
		fn(&o)
	}

	f := &Field{
		bounds:    bounds,
		obstacles: make([]geom.Polygon, 0, len(obstacles)),
		reference: o.reference,
	}
	for i, ob := range obstacles {
		if len(ob) < 3 || abs(ob.Area()) < geom.Eps {
			return nil, fmt.Errorf("obstacle %d: %w", i, ErrDegenerateObstacle)
		}
		f.obstacles = append(f.obstacles, ob.CCW().Clone())
	}

	f.all = make([]geom.Polygon, 0, len(f.obstacles)+4)
	f.all = append(f.all, f.obstacles...)
	f.all = append(f.all, framePolygons(bounds)...)

	f.solidBB = make([]geom.Rect, len(f.all))
	for i, poly := range f.all {
		f.solidBB[i] = poly.Bounds()
	}
	f.accel = buildAccel(f.all, bounds)

	if !o.skipValidate {
		if !f.Free(f.reference) {
			return nil, ErrBlockedReference
		}
		if !f.freeSpaceConnected(o.validationRes) {
			return nil, ErrDisconnected
		}
	}
	return f, nil
}

// MustNew is New but panics on error; for tests and package-level fixtures.
func MustNew(bounds geom.Rect, obstacles []geom.Polygon, opts ...Option) *Field {
	f, err := New(bounds, obstacles, opts...)
	if err != nil {
		panic(err)
	}
	return f
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// framePolygons builds four CCW rectangles covering the complement of
// bounds, so "outside the field" behaves as ordinary obstacle space.
func framePolygons(b geom.Rect) []geom.Polygon {
	t := frameThickness
	return []geom.Polygon{
		// Left, right, bottom, top. Corners are covered by overlap.
		geom.R(b.Min.X-t, b.Min.Y-t, b.Min.X, b.Max.Y+t).Polygon(),
		geom.R(b.Max.X, b.Min.Y-t, b.Max.X+t, b.Max.Y+t).Polygon(),
		geom.R(b.Min.X-t, b.Min.Y-t, b.Max.X+t, b.Min.Y).Polygon(),
		geom.R(b.Min.X-t, b.Max.Y, b.Max.X+t, b.Max.Y+t).Polygon(),
	}
}

// Bounds returns the field rectangle.
func (f *Field) Bounds() geom.Rect { return f.bounds }

// Reference returns the reference point O (base station location).
func (f *Field) Reference() geom.Vec { return f.reference }

// Obstacles returns the interior obstacles (excluding the boundary frame).
// The returned slice must not be modified.
func (f *Field) Obstacles() []geom.Polygon { return f.obstacles }

// NumSolids returns the number of solid polygons including the four frame
// polygons that model the outside of the field.
func (f *Field) NumSolids() int { return len(f.all) }

// Solid returns the i-th solid polygon (interior obstacles first, then the
// four frame polygons). All solids are counter-clockwise.
func (f *Field) Solid(i int) geom.Polygon { return f.all[i] }

// IsFrame reports whether solid index i is one of the boundary frame
// polygons rather than an interior obstacle.
func (f *Field) IsFrame(i int) bool { return i >= len(f.obstacles) }

// Free reports whether p lies in the field and not strictly inside any
// obstacle. Points exactly on an obstacle or field boundary are free
// (a sensor may touch a wall).
func (f *Field) Free(p geom.Vec) bool {
	if !f.bounds.Contains(p) {
		return false
	}
	for i, ob := range f.obstacles {
		// Strict containment implies p is inside the obstacle's bounding
		// box, so a bbox reject (padded far beyond the Eps boundary
		// margin) cannot change the result.
		bb := f.solidBB[i]
		if p.X < bb.Min.X-accelPad || p.X > bb.Max.X+accelPad ||
			p.Y < bb.Min.Y-accelPad || p.Y > bb.Max.Y+accelPad {
			continue
		}
		if ob.ContainsStrict(p, geom.Eps) {
			return false
		}
	}
	return true
}

// FreeArea returns the area of the field not covered by obstacles,
// estimated on a grid with the given resolution.
func (f *Field) FreeArea(res float64) float64 {
	if res <= 0 {
		res = connectivityRes
	}
	var free, total int
	for y := f.bounds.Min.Y + res/2; y < f.bounds.Max.Y; y += res {
		for x := f.bounds.Min.X + res/2; x < f.bounds.Max.X; x += res {
			total++
			if f.Free(geom.V(x, y)) {
				free++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return f.bounds.Area() * float64(free) / float64(total)
}

// RandomFreePoint samples a uniformly random free point within sub (clipped
// to the field bounds). It panics if it cannot find a free point after many
// attempts, which indicates sub is (almost) fully blocked.
func (f *Field) RandomFreePoint(rng *rand.Rand, sub geom.Rect) geom.Vec {
	lo := sub.Min.Clamp(f.bounds)
	hi := sub.Max.Clamp(f.bounds)
	for i := 0; i < 10000; i++ {
		p := geom.V(lo.X+rng.Float64()*(hi.X-lo.X), lo.Y+rng.Float64()*(hi.Y-lo.Y))
		if f.Free(p) {
			return p
		}
	}
	panic("field: RandomFreePoint could not find a free point; region blocked")
}

// freeSpaceConnected reports whether every free cell of a res grid over
// the bounds is reachable from the reference point's cell.
//
// Without interior obstacles a cell is free exactly when its centre lies
// in the bounds. Centres grow with the cell index, so the free cells form
// a prefix rectangle of the grid, which is connected when it is not empty,
// that is, when cell (0, 0) is free. Fields with obstacles flood-fill.
func (f *Field) freeSpaceConnected(res float64) bool {
	nx := int(f.bounds.W()/res) + 1
	ny := int(f.bounds.H()/res) + 1
	if nx <= 0 || ny <= 0 {
		return true
	}
	if len(f.obstacles) == 0 {
		return f.bounds.Contains(f.cellCentre(res, 0, 0))
	}
	return f.flood(res, nx, ny)
}

// cellCentre is the centre of cell (ix, iy) of a res grid over the bounds.
func (f *Field) cellCentre(res float64, ix, iy int) geom.Vec {
	return geom.V(f.bounds.Min.X+(float64(ix)+0.5)*res, f.bounds.Min.Y+(float64(iy)+0.5)*res)
}

// flood flood-fills the nx×ny grid of res cells over the free space and
// reports whether every free cell is reachable from the reference point's
// cell.
func (f *Field) flood(res float64, nx, ny int) bool {
	idx := func(ix, iy int) int { return iy*nx + ix }
	free := make([]bool, nx*ny)
	nFree := 0
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			p := f.cellCentre(res, ix, iy)
			if f.bounds.Contains(p) && f.Free(p) {
				free[idx(ix, iy)] = true
				nFree++
			}
		}
	}
	if nFree == 0 {
		return false
	}
	// Start from the free cell nearest the reference point.
	startX := clampInt(int((f.reference.X-f.bounds.Min.X)/res), 0, nx-1)
	startY := clampInt(int((f.reference.Y-f.bounds.Min.Y)/res), 0, ny-1)
	start := -1
	for r := 0; r < nx+ny && start < 0; r++ {
		for iy := maxInt(0, startY-r); iy <= minInt(ny-1, startY+r) && start < 0; iy++ {
			for ix := maxInt(0, startX-r); ix <= minInt(nx-1, startX+r); ix++ {
				if free[idx(ix, iy)] {
					start = idx(ix, iy)
					break
				}
			}
		}
	}
	if start < 0 {
		return false
	}
	visited := make([]bool, nx*ny)
	queue := make([]int, 0, nFree)
	queue = append(queue, start)
	visited[start] = true
	reached := 0
	for len(queue) > 0 {
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		reached++
		cx, cy := cur%nx, cur/nx
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nxt, nyt := cx+d[0], cy+d[1]
			if nxt < 0 || nxt >= nx || nyt < 0 || nyt >= ny {
				continue
			}
			ni := idx(nxt, nyt)
			if free[ni] && !visited[ni] {
				visited[ni] = true
				queue = append(queue, ni)
			}
		}
	}
	return reached == nFree
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
