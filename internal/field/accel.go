package field

import (
	"math"

	"mobisense/internal/geom"
)

// This file holds the field's segment acceleration structure: every solid
// boundary edge flattened into one struct-of-arrays arena with padded
// per-edge bounding boxes, plus a uniform grid binning edges by cell.
// Geometry kernels (FirstHit, SegmentFree/Visible, the boundary
// queries) walk only candidate edges near the query instead of every
// edge of every solid.
//
// Every use of the structure is an *exact pruning* transformation: a
// candidate edge set is only ever a superset of the edges that can
// influence the brute-force result, and the per-edge predicates are the
// very same expressions a scan over every edge of every solid evaluates,
// so results are bit-identical — the repo's determinism invariant.
// accel_test.go keeps those scans as oracles. The padding absorbs the
// Eps-scaled slack of the geometric predicates (IntersectParam
// accepts parameters in [-Eps, 1+Eps], i.e. points up to ~Eps·length ≈
// 1e-5 m off an edge); accelPad exceeds that by two orders of magnitude.

// accelPad is the bounding-box padding in meters. It must exceed the
// largest positional slack any geometric predicate grants (~Eps times the
// longest segment, ≈1e-5 m here); 1e-3 m leaves a 100× margin while
// admitting essentially no extra candidates at field scale.
const accelPad = 1e-3

// accel is the immutable acceleration structure, built once per Field.
type accel struct {
	// Edge arena in (solid, edge) order: endpoints, precomputed lengths
	// and padded bounding boxes, plus the owning solid/edge indices.
	ax, ay, bx, by []float64
	elen           []float64
	bbMinX, bbMinY []float64
	bbMaxX, bbMaxY []float64
	solid, edge    []int32
	// solidStart[i] is the arena index of solid i's first edge;
	// solidStart[len(solids)] closes the last range.
	solidStart []int32

	// Uniform grid over the field bounds in CSR layout: cell c's edge ids
	// are cellEdges[cellStart[c]:cellStart[c+1]]. Edges (and queries)
	// outside the grid clamp into the border cells, so off-grid geometry
	// — the frame polygons extend frameThickness beyond the bounds — is
	// still found.
	minX, minY float64
	cellW      float64
	gnx, gny   int
	cellStart  []int32
	cellEdges  []int32
}

// buildAccel flattens the solids into the arena and bins the edges.
func buildAccel(solids []geom.Polygon, bounds geom.Rect) *accel {
	nEdges := 0
	for _, s := range solids {
		nEdges += s.NumEdges()
	}
	a := &accel{
		ax:         make([]float64, 0, nEdges),
		ay:         make([]float64, 0, nEdges),
		bx:         make([]float64, 0, nEdges),
		by:         make([]float64, 0, nEdges),
		elen:       make([]float64, 0, nEdges),
		bbMinX:     make([]float64, 0, nEdges),
		bbMinY:     make([]float64, 0, nEdges),
		bbMaxX:     make([]float64, 0, nEdges),
		bbMaxY:     make([]float64, 0, nEdges),
		solid:      make([]int32, 0, nEdges),
		edge:       make([]int32, 0, nEdges),
		solidStart: make([]int32, 0, len(solids)+1),
	}
	for si, s := range solids {
		a.solidStart = append(a.solidStart, int32(len(a.ax)))
		for e := 0; e < s.NumEdges(); e++ {
			seg := s.Edge(e)
			a.ax = append(a.ax, seg.A.X)
			a.ay = append(a.ay, seg.A.Y)
			a.bx = append(a.bx, seg.B.X)
			a.by = append(a.by, seg.B.Y)
			a.elen = append(a.elen, seg.Len())
			a.bbMinX = append(a.bbMinX, math.Min(seg.A.X, seg.B.X)-accelPad)
			a.bbMinY = append(a.bbMinY, math.Min(seg.A.Y, seg.B.Y)-accelPad)
			a.bbMaxX = append(a.bbMaxX, math.Max(seg.A.X, seg.B.X)+accelPad)
			a.bbMaxY = append(a.bbMaxY, math.Max(seg.A.Y, seg.B.Y)+accelPad)
			a.solid = append(a.solid, int32(si))
			a.edge = append(a.edge, int32(e))
		}
	}
	a.solidStart = append(a.solidStart, int32(len(a.ax)))

	// Grid resolution: scale the per-axis cell count with the edge count
	// so dense random-obstacle fields get finer bins, and keep square
	// cells over the longer bounds axis.
	n := 4 * (int(math.Sqrt(float64(nEdges))) + 1)
	if n < 8 {
		n = 8
	}
	if n > 128 {
		n = 128
	}
	ext := math.Max(bounds.W(), bounds.H())
	if ext <= 0 {
		ext = 1
	}
	a.cellW = ext / float64(n)
	a.minX, a.minY = bounds.Min.X, bounds.Min.Y
	a.gnx = int(math.Ceil(bounds.W()/a.cellW)) + 1
	a.gny = int(math.Ceil(bounds.H()/a.cellW)) + 1

	// Two-pass CSR fill: count edges per cell, then place them.
	counts := make([]int32, a.gnx*a.gny+1)
	for i := range a.ax {
		ix0, iy0 := a.cellOf(a.bbMinX[i], a.bbMinY[i])
		ix1, iy1 := a.cellOf(a.bbMaxX[i], a.bbMaxY[i])
		for iy := iy0; iy <= iy1; iy++ {
			for ix := ix0; ix <= ix1; ix++ {
				counts[iy*a.gnx+ix+1]++
			}
		}
	}
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	a.cellStart = counts
	a.cellEdges = make([]int32, a.cellStart[len(a.cellStart)-1])
	next := make([]int32, a.gnx*a.gny)
	for i := range a.ax {
		ix0, iy0 := a.cellOf(a.bbMinX[i], a.bbMinY[i])
		ix1, iy1 := a.cellOf(a.bbMaxX[i], a.bbMaxY[i])
		for iy := iy0; iy <= iy1; iy++ {
			for ix := ix0; ix <= ix1; ix++ {
				c := iy*a.gnx + ix
				a.cellEdges[a.cellStart[c]+next[c]] = int32(i)
				next[c]++
			}
		}
	}
	return a
}

// cellOf maps a point to its (clamped) grid cell.
func (a *accel) cellOf(x, y float64) (ix, iy int) {
	ix = int((x - a.minX) / a.cellW)
	if ix < 0 {
		ix = 0
	} else if ix >= a.gnx {
		ix = a.gnx - 1
	}
	iy = int((y - a.minY) / a.cellW)
	if iy < 0 {
		iy = 0
	} else if iy >= a.gny {
		iy = a.gny - 1
	}
	return ix, iy
}

// edgeSeg reconstructs arena edge i as a Segment.
func (a *accel) edgeSeg(i int32) geom.Segment {
	return geom.Segment{
		A: geom.Vec{X: a.ax[i], Y: a.ay[i]},
		B: geom.Vec{X: a.bx[i], Y: a.by[i]},
	}
}

// firstHit is the accelerated FirstHit: it walks the grid cells the query
// segment passes through and reduces the candidate edges to the
// lexicographic minimum of (t, solid, edge) — exactly the winner the
// brute-force solid-by-solid scan selects (strictly smaller t wins there,
// with ties broken by solid order and then edge order). Most calls reject
// every candidate on the bounding-box test, so the segment length (a
// Hypot) is computed only once an edge survives it.
func (a *accel) firstHit(s geom.Segment) (Hit, bool) {
	sDir := s.B.Sub(s.A)
	sLen := -1.0
	sbMinX := min(s.A.X, s.B.X) - accelPad
	sbMinY := min(s.A.Y, s.B.Y) - accelPad
	sbMaxX := max(s.A.X, s.B.X) + accelPad
	sbMaxY := max(s.A.Y, s.B.Y) + accelPad

	bestT := math.Inf(1)
	bestSolid, bestEdge := int32(-1), int32(-1)

	_, iy0 := a.cellOf(sbMinX, sbMinY)
	_, iy1 := a.cellOf(sbMaxX, sbMaxY)
	for iy := iy0; iy <= iy1; iy++ {
		// The y-band of this row, padded; border rows extend to infinity
		// because off-grid edges (and query portions) clamp into them.
		bandLo := a.minY + float64(iy)*a.cellW - accelPad
		bandHi := a.minY + float64(iy+1)*a.cellW + accelPad
		if iy == 0 {
			bandLo = math.Inf(-1)
		}
		if iy == a.gny-1 {
			bandHi = math.Inf(1)
		}
		xLo, xHi, ok := segXRange(s, bandLo, bandHi)
		if !ok {
			continue
		}
		ix0, _ := a.cellOf(xLo-accelPad, 0)
		ix1, _ := a.cellOf(xHi+accelPad, 0)
		base := iy * a.gnx
		for ix := ix0; ix <= ix1; ix++ {
			c := base + ix
			for _, ei := range a.cellEdges[a.cellStart[c]:a.cellStart[c+1]] {
				// Cheap bbox reject; edges spanning several visited cells
				// are simply tested more than once — the min-reduction is
				// idempotent, so no dedup state is needed.
				if a.bbMinX[ei] > sbMaxX || a.bbMaxX[ei] < sbMinX ||
					a.bbMinY[ei] > sbMaxY || a.bbMaxY[ei] < sbMinY {
					continue
				}
				if sLen < 0 {
					sLen = sDir.Len()
				}
				e := a.edgeSeg(ei)
				// Identical predicates to Polygon.IntersectSegment: skip
				// parallel edges (grazing is not a crossing), then take
				// the exact segment-segment parameter.
				if math.Abs(sDir.Cross(e.B.Sub(e.A))) < geom.Eps*max(1, sLen*a.elen[ei]) {
					continue
				}
				ti, hit := s.IntersectParam(e)
				if !hit {
					continue
				}
				if ti < bestT ||
					(ti == bestT && (a.solid[ei] < bestSolid ||
						(a.solid[ei] == bestSolid && a.edge[ei] < bestEdge))) {
					bestT = ti
					bestSolid = a.solid[ei]
					bestEdge = a.edge[ei]
				}
			}
		}
	}
	if bestSolid < 0 {
		return Hit{}, false
	}
	return Hit{T: bestT, Point: s.At(bestT), Solid: int(bestSolid), Edge: int(bestEdge)}, true
}

// segXRange returns the x-extent of the part of s whose y lies in
// [yLo, yHi]; ok is false when no part of the segment is in the band.
func segXRange(s geom.Segment, yLo, yHi float64) (xLo, xHi float64, ok bool) {
	t0, t1 := 0.0, 1.0
	dy := s.B.Y - s.A.Y
	if dy != 0 {
		ta := (yLo - s.A.Y) / dy
		tb := (yHi - s.A.Y) / dy
		if ta > tb {
			ta, tb = tb, ta
		}
		t0 = max(t0, ta)
		t1 = min(t1, tb)
		if t0 > t1 {
			return 0, 0, false
		}
	} else if s.A.Y < yLo || s.A.Y > yHi {
		return 0, 0, false
	}
	dx := s.B.X - s.A.X
	x0 := s.A.X + dx*t0
	x1 := s.A.X + dx*t1
	return min(x0, x1), max(x0, x1), true
}

// dist2ToPaddedRect returns the squared distance from (x, y) to the
// padded bounding box of arena edge i (zero inside the box). It
// lower-bounds the true point-to-edge distance by at least accelPad
// whenever it is positive, so pruning on it is exact even across
// floating-point rounding of the two different distance computations.
func (a *accel) dist2ToPaddedRect(i int32, x, y float64) float64 {
	var dx, dy float64
	if x < a.bbMinX[i] {
		dx = a.bbMinX[i] - x
	} else if x > a.bbMaxX[i] {
		dx = x - a.bbMaxX[i]
	}
	if y < a.bbMinY[i] {
		dy = a.bbMinY[i] - y
	} else if y > a.bbMaxY[i] {
		dy = y - a.bbMaxY[i]
	}
	return dx*dx + dy*dy
}

// closestBoundaryPoint is the accelerated Polygon.ClosestBoundaryPoint
// for solid si: identical scan order and update predicate, with edges
// whose padded bbox already lies beyond the current best pruned away.
func (a *accel) closestBoundaryPoint(si int, q geom.Vec) (geom.Vec, int) {
	lo, hi := a.solidStart[si], a.solidStart[si+1]
	best := geom.Vec{X: a.ax[lo], Y: a.ay[lo]}
	bestEdge := 0
	bestD := math.Inf(1)
	for i := lo; i < hi; i++ {
		// True d² ≥ padded-bbox d², so a strictly larger bound can never
		// beat bestD under the brute path's strict `d < bestD` update.
		if a.dist2ToPaddedRect(i, q.X, q.Y) > bestD {
			continue
		}
		pt := a.edgeSeg(i).ClosestPoint(q)
		if d := pt.Dist2(q); d < bestD {
			bestD = d
			best = pt
			bestEdge = int(i - lo)
		}
	}
	return best, bestEdge
}

// ProbeScratch holds the reusable candidate buffers of a DiskProbe and of
// its row-narrowed probes, so per-period callers (the coverage kernels)
// fill probes without allocating.
type ProbeScratch struct {
	edges []int32
	obs   []int32
	row   []int32
}

// Probe is a disk-scoped line-of-sight context: the candidate solid
// edges and interior obstacles that can influence visibility between
// points inside the disk it was built for. A probe whose candidate edge
// list is empty answers every in-disk visibility query with "visible"
// without any geometry work — the common case on sparse-obstacle fields.
type Probe struct {
	f     *Field
	sc    *ProbeScratch
	edges []int32
	obs   []int32
}

// TriviallyVisible reports that no solid edge lies near the probe's
// disk, so every in-disk free pair is mutually visible and callers may
// skip per-pair visibility tests altogether — the common case on
// sparse-obstacle fields.
func (p Probe) TriviallyVisible() bool { return len(p.edges) == 0 }

// DiskProbe gathers the candidate edges and obstacles for visibility
// queries between points inside the disk of radius r around center. The
// scratch buffers are reused across fills; the returned probe aliases
// them and is valid until the next fill of the same scratch.
func (f *Field) DiskProbe(sc *ProbeScratch, center geom.Vec, r float64) Probe {
	a := f.accel
	if n := len(a.ax); cap(sc.edges) < n {
		// One arena-sized block backs both the disk's candidates and a
		// row's subset of them, so neither ever regrows.
		buf := make([]int32, 2*n)
		sc.edges, sc.row = buf[:0:n], buf[n:n]
	}
	if cap(sc.obs) < len(f.obstacles) {
		sc.obs = make([]int32, 0, len(f.obstacles))
	}
	loX, loY := center.X-r-accelPad, center.Y-r-accelPad
	hiX, hiY := center.X+r+accelPad, center.Y+r+accelPad
	edges := sc.edges[:0]
	// The arena sweep is a branch-light SoA pass; for the edge counts the
	// simulator sees it beats assembling + deduping grid cell lists.
	for i := range a.ax {
		if a.bbMinX[i] > hiX || a.bbMaxX[i] < loX ||
			a.bbMinY[i] > hiY || a.bbMaxY[i] < loY {
			continue
		}
		edges = append(edges, int32(i))
	}
	sc.edges = edges
	obs := sc.obs[:0]
	for i := range f.obstacles {
		bb := f.solidBB[i]
		if bb.Min.X-accelPad > hiX || bb.Max.X+accelPad < loX ||
			bb.Min.Y-accelPad > hiY || bb.Max.Y+accelPad < loY {
			continue
		}
		obs = append(obs, int32(i))
	}
	sc.obs = obs
	return Probe{f: f, sc: sc, edges: edges, obs: obs}
}

// Row narrows a disk probe to the visibility queries between
// points whose y coordinates are ya and yb: it keeps only the candidate
// edges whose padded y-extent overlaps [min(ya, yb), max(ya, yb)]. That
// is the y half of VisibleFree's per-edge bounding-box reject, which is
// the same for every segment between the two rows, so
// p.Row(a.Y, b.Y).VisibleFree(a, b) equals p.VisibleFree(a, b). A row
// probe with no edges left is TriviallyVisible. The result aliases the
// scratch the disk probe was filled from and is valid until the next Row
// call on a probe of that scratch.
func (p Probe) Row(ya, yb float64) Probe {
	if len(p.edges) == 0 {
		return p
	}
	ac := p.f.accel
	loY := min(ya, yb) - accelPad
	hiY := max(ya, yb) + accelPad
	row := p.sc.row[:0]
	for _, ei := range p.edges {
		if ac.bbMinY[ei] > hiY || ac.bbMaxY[ei] < loY {
			continue
		}
		row = append(row, ei)
	}
	p.sc.row = row
	p.edges = row
	return p
}

// XReject is the x half of VisibleFree's per-edge bounding-box reject on
// a row probe, for the segments from a fixed point a to the points b of
// the row. Row has already applied the y half, so an edge survives the
// reject exactly when its padded x-extent overlaps the segment's,
// [min(a.X, b.X) − accelPad, max(a.X, b.X) + accelPad]:
//   - for b.X ≥ a.X that box is [a.X − pad, b.X + pad], and every edge is
//     rejected exactly when b.X + pad < right, where right is the least
//     bbMinX over the edges with bbMaxX ≥ a.X − pad (the others lie
//     wholly left of every such segment);
//   - for b.X < a.X it is mirrored: every edge is rejected exactly when
//     b.X − pad > left, the greatest bbMaxX over the edges with
//     bbMinX ≤ a.X + pad.
//
// Clear evaluates the bounds with the float expressions VisibleFree
// uses, so a cleared b is one whose VisibleFree(a, b) finds no candidate
// edge and returns true. The clear points of a row are therefore the
// ones nearest a.X: b.X ± pad is monotone in b.X, so the points that
// still need a test are a prefix of those left of a and a suffix of
// those right of it, and a run of points whose two ends are clear is
// clear throughout.
type XReject struct {
	ax, left, right float64
}

// XReject returns the x-half reject of the row probe for segments from a
// point whose x coordinate is ax.
func (p Probe) XReject(ax float64) XReject {
	ac := p.f.accel
	r := XReject{ax: ax, left: math.Inf(-1), right: math.Inf(1)}
	loX, hiX := ax-accelPad, ax+accelPad
	for _, ei := range p.edges {
		if ac.bbMaxX[ei] >= loX {
			r.right = min(r.right, ac.bbMinX[ei])
		}
		if ac.bbMinX[ei] <= hiX {
			r.left = max(r.left, ac.bbMaxX[ei])
		}
	}
	return r
}

// Clear reports whether the x half rejects every edge of the row probe
// for the segment from a to a point of the row whose x coordinate is bx,
// so that VisibleFree returns true without testing any edge.
func (r XReject) Clear(bx float64) bool {
	if bx >= r.ax {
		return max(r.ax, bx)+accelPad < r.right
	}
	return min(r.ax, bx)-accelPad > r.left
}

// VisibleFree reports Field.Visible(a, b) for endpoints that are already
// known to be free and lie inside the probe's disk — the coverage
// kernels establish both facts before the inner loop, so the redundant
// Free point tests are elided. The hit search reduces over the probe's
// candidate edges only; every edge any in-disk segment can hit is a
// candidate, so the reduction equals the full FirstHit.
//
// Most calls reject every candidate on the bounding-box test, so the
// segment length (a Hypot) is computed only once an edge survives it,
// and the grazing check reuses it: Len is Hypot(A-B) while this is
// Hypot(B-A), and Hypot takes absolute values, so the bits agree.
func (p Probe) VisibleFree(a, b geom.Vec) bool {
	f := p.f
	if len(f.obstacles) == 0 {
		// Visible's obstacle-free shortcut is Free(a) && Free(b), both
		// known true.
		return true
	}
	if len(p.edges) == 0 {
		// No solid edge anywhere near the disk: FirstHit cannot hit, and
		// SegmentFree of two free points with no hit is true.
		return true
	}
	ac := f.accel
	s := geom.Seg(a, b)
	var sDir geom.Vec
	sLen := -1.0
	sbMinX := min(a.X, b.X) - accelPad
	sbMinY := min(a.Y, b.Y) - accelPad
	sbMaxX := max(a.X, b.X) + accelPad
	sbMaxY := max(a.Y, b.Y) + accelPad
	bestT := math.Inf(1)
	bestSolid, bestEdge := int32(-1), int32(-1)
	for _, ei := range p.edges {
		if ac.bbMinX[ei] > sbMaxX || ac.bbMaxX[ei] < sbMinX ||
			ac.bbMinY[ei] > sbMaxY || ac.bbMaxY[ei] < sbMinY {
			continue
		}
		if sLen < 0 {
			sDir = s.B.Sub(s.A)
			sLen = sDir.Len()
		}
		e := ac.edgeSeg(ei)
		if math.Abs(sDir.Cross(e.B.Sub(e.A))) < geom.Eps*max(1, sLen*ac.elen[ei]) {
			continue
		}
		ti, hit := s.IntersectParam(e)
		if !hit {
			continue
		}
		if ti < bestT ||
			(ti == bestT && (ac.solid[ei] < bestSolid ||
				(ac.solid[ei] == bestSolid && ac.edge[ei] < bestEdge))) {
			bestT = ti
			bestSolid = ac.solid[ei]
			bestEdge = ac.edge[ei]
		}
	}
	if bestSolid < 0 {
		return true
	}
	// SegmentFree's grazing-vs-crossing logic, verbatim, with d = s.Len().
	d := sLen
	if bestT*d > geom.Eps && (1-bestT)*d > geom.Eps {
		return false
	}
	return p.FreeInDisk(s.Midpoint())
}

// FreeInDisk is Field.Free for points inside the probe's disk: only the
// candidate obstacles can strictly contain such a point, so the rest of
// the obstacle list is skipped.
func (p Probe) FreeInDisk(q geom.Vec) bool {
	f := p.f
	if !f.bounds.Contains(q) {
		return false
	}
	for _, oi := range p.obs {
		if f.obstacles[oi].ContainsStrict(q, geom.Eps) {
			return false
		}
	}
	return true
}
