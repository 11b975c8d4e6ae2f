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
	"slices"
	"sort"

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

// freeSpaceConnected reports whether the free cells of a res grid over
// the bounds form exactly one 4-connected region, so that every free cell
// is reachable from the reference point's.
//
// Without interior obstacles a cell is free exactly when its centre lies
// in the bounds. Centres grow with the cell index, so the free cells form
// a prefix rectangle of the grid, which is connected when it is not empty,
// that is, when cell (0, 0) is free. Fields with obstacles rasterize the
// free space and join its row runs.
func (f *Field) freeSpaceConnected(res float64) bool {
	nx := int(f.bounds.W()/res) + 1
	ny := int(f.bounds.H()/res) + 1
	if nx <= 0 || ny <= 0 {
		return true
	}
	if len(f.obstacles) == 0 {
		return f.bounds.Contains(f.cellCentre(res, 0, 0))
	}
	return oneRegion(f.FreeMask(res, nx, ny), nx)
}

// cellCentre is the centre of cell (ix, iy) of a res grid over the bounds.
func (f *Field) cellCentre(res float64, ix, iy int) geom.Vec {
	return geom.V(f.bounds.Min.X+(float64(ix)+0.5)*res, f.bounds.Min.Y+(float64(iy)+0.5)*res)
}

// FreeMask rasterizes the free space onto the nx×ny grid of res cells
// whose lower-left corner is the bounds' (cell (ix, iy) is entry
// iy·nx + ix, centred at Min + ((ix+0.5)·res, (iy+0.5)·res)). An entry
// is true when its centre c lies in the bounds and is free, that is
// Bounds().Contains(c) && Free(c), cell for cell.
//
// It answers that without asking Free per cell. The bounds test is an x
// test and a y test, so it passes a rectangle of cells. Each obstacle
// then clears only the cells whose centres pass Free's padded
// bounding-box test. Per row of them, the polygon's edge crossings are
// computed once (AppendRowCrossings, the interior test's own
// expression), and a centre is inside when an odd number of crossings
// lie to its right. Only inside centres pay the boundary test, as in
// ContainsStrict.
func (f *Field) FreeMask(res float64, nx, ny int) []bool {
	mask := make([]bool, nx*ny)
	cx := make([]float64, nx)
	for ix := range cx {
		cx[ix] = f.bounds.Min.X + (float64(ix)+0.5)*res
	}
	cy := make([]float64, ny)
	for iy := range cy {
		cy[iy] = f.bounds.Min.Y + (float64(iy)+0.5)*res
	}
	// Centres grow with the index, so those passing a range test, the
	// bounds' or an obstacle's padded box, form a column and a row range.
	ix0, ix1 := span(cx, f.bounds.Min.X-geom.Eps, f.bounds.Max.X+geom.Eps)
	iy0, iy1 := span(cy, f.bounds.Min.Y-geom.Eps, f.bounds.Max.Y+geom.Eps)
	if iy0 < iy1 {
		first := mask[iy0*nx+ix0 : iy0*nx+ix1]
		for i := range first {
			first[i] = true
		}
		for iy := iy0 + 1; iy < iy1; iy++ {
			copy(mask[iy*nx+ix0:iy*nx+ix1], first)
		}
	}
	var buf [8]float64
	for i, ob := range f.obstacles {
		bb := f.solidBB[i]
		ix0, ix1 := span(cx, bb.Min.X-accelPad, bb.Max.X+accelPad)
		iy0, iy1 := span(cy, bb.Min.Y-accelPad, bb.Max.Y+accelPad)
		for iy := iy0; iy < iy1; iy++ {
			xs := ob.AppendRowCrossings(buf[:0], cy[iy])
			if len(xs) == 0 {
				continue
			}
			slices.Sort(xs)
			row := mask[iy*nx : (iy+1)*nx]
			left := 0 // crossings at or left of the current centre
			for ix := ix0; ix < ix1; ix++ {
				for left < len(xs) && xs[left] <= cx[ix] {
					left++
				}
				if (len(xs)-left)%2 == 1 && row[ix] && !ob.OnBoundary(geom.V(cx[ix], cy[iy]), geom.Eps) {
					row[ix] = false
				}
			}
		}
	}
	return mask
}

// span returns the index range [i0, i1) of the non-decreasing centres
// that lie in [lo, hi].
func span(centres []float64, lo, hi float64) (i0, i1 int) {
	i0 = sort.Search(len(centres), func(i int) bool { return centres[i] >= lo })
	i1 = sort.Search(len(centres), func(i int) bool { return centres[i] > hi })
	return i0, max(i0, i1)
}

// oneRegion reports whether the true cells of an nx-wide row-major mask
// form exactly one 4-connected region. It joins runs rather than cells:
// each row's maximal runs of true cells start as regions of their own,
// and a union-find joins two runs of adjacent rows that share a column.
func oneRegion(mask []bool, nx int) bool {
	type run struct {
		lo, hi int // columns, inclusive
		id     int32
	}
	ny := len(mask) / nx
	parent := make([]int32, 0, 4*ny) // room for four runs a row
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	regions := 0
	prev, cur := make([]run, 0, 8), make([]run, 0, 8)
	for y := 0; y < ny; y++ {
		row := mask[y*nx : (y+1)*nx]
		cur = cur[:0]
		for ix := 0; ix < nx; ix++ {
			if !row[ix] {
				continue
			}
			lo := ix
			for ix+1 < nx && row[ix+1] {
				ix++
			}
			id := int32(len(parent))
			parent = append(parent, id)
			cur = append(cur, run{lo, ix, id})
			regions++
		}
		// Both rows' runs are sorted and disjoint, so one merge pass
		// visits every overlapping pair.
		for i, j := 0, 0; i < len(prev) && j < len(cur); {
			if prev[i].lo <= cur[j].hi && cur[j].lo <= prev[i].hi {
				if a, b := find(prev[i].id), find(cur[j].id); a != b {
					parent[b] = a
					regions--
				}
			}
			if prev[i].hi < cur[j].hi {
				i++
			} else {
				j++
			}
		}
		prev, cur = cur, prev
	}
	return regions == 1
}
