package field

import (
	"mobisense/internal/geom"
)

// Hit describes the first collision of a motion segment with a solid
// boundary.
type Hit struct {
	T     float64  // parameter along the query segment, in [0,1]
	Point geom.Vec // collision point
	Solid int      // index into the field's solids (see Field.Solid)
	Edge  int      // edge index within the solid polygon
}

// FirstHit returns the earliest intersection of segment s with any solid
// boundary (interior obstacles or the field frame). ok is false when the
// segment stays entirely in free space.
func (f *Field) FirstHit(s geom.Segment) (Hit, bool) {
	return f.accel.firstHit(s)
}

// SegmentFree reports whether the open segment between a and b stays in
// free space, ignoring grazing contact at the endpoints themselves. It is
// used by motion code to test candidate steps.
func (f *Field) SegmentFree(a, b geom.Vec) bool {
	if !f.Free(a) || !f.Free(b) {
		return false
	}
	hit, ok := f.FirstHit(geom.Seg(a, b))
	if !ok {
		return true
	}
	// A hit exactly at either endpoint is grazing contact, not a crossing,
	// unless the segment midpoint is blocked (segment passes through a
	// solid whose boundary contains an endpoint).
	d := geom.Seg(a, b).Len()
	if hit.T*d > geom.Eps && (1-hit.T)*d > geom.Eps {
		return false
	}
	return f.Free(geom.Seg(a, b).Midpoint())
}

// Visible reports whether a sensor at a has line of sight to point b:
// sensing (§3.1 "recognize the boundary of the obstacles within its sensing
// range") does not penetrate obstacles. Fields without interior obstacles
// short-circuit to true for points in free space.
func (f *Field) Visible(a, b geom.Vec) bool {
	if len(f.obstacles) == 0 {
		return f.Free(a) && f.Free(b)
	}
	return f.SegmentFree(a, b)
}

// BoundaryProximity describes the closest point of one solid's boundary to
// a query point.
type BoundaryProximity struct {
	Point geom.Vec // closest boundary point
	Dist  float64  // distance from the query point
	Solid int      // solid index
	Edge  int      // edge index within the solid
}

// BoundariesWithin returns, for each solid whose boundary comes within r of
// p, the closest boundary point. Used by the virtual-force obstacle
// repulsion and by sensing-range boundary detection.
func (f *Field) BoundariesWithin(p geom.Vec, r float64) []BoundaryProximity {
	return f.BoundariesWithinAppend(nil, p, r)
}

// BoundariesWithinAppend is BoundariesWithin appending to out, letting
// per-period callers reuse one scratch slice instead of allocating.
func (f *Field) BoundariesWithinAppend(out []BoundaryProximity, p geom.Vec, r float64) []BoundaryProximity {
	for i := range f.all {
		// Cheap reject on the precomputed polygon bounding box.
		if !f.solidBB[i].Expand(r).Contains(p) {
			continue
		}
		pt, edge := f.accel.closestBoundaryPoint(i, p)
		if d := pt.Dist(p); d <= r {
			out = append(out, BoundaryProximity{Point: pt, Dist: d, Solid: i, Edge: edge})
		}
	}
	return out
}

// BoundarySegment is a portion of a solid's boundary edge that falls inside
// a sensing disk.
type BoundarySegment struct {
	Seg   geom.Segment
	Solid int
	Edge  int
}

// BoundarySegmentsWithin returns the parts of all solid boundaries visible
// inside the disk of radius r centered at p. This implements the sensing
// assumption of §3.1 ("a sensor ... can recognize the boundary of the
// obstacles within its sensing range") and feeds BLG-expansion (§5.5.1).
func (f *Field) BoundarySegmentsWithin(p geom.Vec, r float64) []BoundarySegment {
	return f.BoundarySegmentsWithinAppend(nil, p, r)
}

// BoundarySegmentsWithinAppend is BoundarySegmentsWithin appending to
// out, letting per-period callers reuse one scratch slice.
func (f *Field) BoundarySegmentsWithinAppend(out []BoundarySegment, p geom.Vec, r float64) []BoundarySegment {
	disk := geom.Circle{C: p, R: r}
	a := f.accel
	r2 := r * r
	for i := range f.all {
		if !f.solidBB[i].Expand(r).Contains(p) {
			continue
		}
		// Walk the solid's arena edges, skipping edges whose padded bbox
		// stays outside the disk: a reported intersection needs the edge
		// within R (+Eps slack) of p, and a positive padded bbox distance
		// lower-bounds the edge distance by ≥ pad/2.
		lo, hi := a.solidStart[i], a.solidStart[i+1]
		for ai := lo; ai < hi; ai++ {
			if a.dist2ToPaddedRect(ai, p.X, p.Y) > r2 {
				continue
			}
			edge := a.edgeSeg(ai)
			t0, t1, ok := disk.IntersectSegment(edge)
			if !ok || t1-t0 < geom.Eps {
				continue
			}
			out = append(out, BoundarySegment{
				Seg:   geom.Seg(edge.At(t0), edge.At(t1)),
				Solid: i,
				Edge:  int(ai - lo),
			})
		}
	}
	return out
}
