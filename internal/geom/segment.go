package geom

import "math"

// Segment is a closed line segment from A to B.
type Segment struct {
	A, B Vec
}

// Seg is shorthand for constructing a Segment.
func Seg(a, b Vec) Segment { return Segment{A: a, B: b} }

// Len returns the length of the segment.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Dir returns the unit direction from A to B (zero vector if degenerate).
func (s Segment) Dir() Vec { return s.B.Sub(s.A).Unit() }

// At returns the point at parameter t along the segment, with t=0 at A and
// t=1 at B. t is not clamped.
func (s Segment) At(t float64) Vec { return s.A.Lerp(s.B, t) }

// Midpoint returns the midpoint of the segment.
func (s Segment) Midpoint() Vec { return s.At(0.5) }

// ClosestParam returns the parameter t in [0,1] of the point on the segment
// closest to p.
func (s Segment) ClosestParam(p Vec) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Len2()
	if l2 < Eps*Eps {
		return 0
	}
	t := p.Sub(s.A).Dot(d) / l2
	return math.Min(1, math.Max(0, t))
}

// ClosestPoint returns the point on the segment closest to p.
func (s Segment) ClosestPoint(p Vec) Vec { return s.At(s.ClosestParam(p)) }

// Dist returns the distance from p to the segment.
func (s Segment) Dist(p Vec) float64 { return s.ClosestPoint(p).Dist(p) }

// Side reports which side of the infinite line through s the point p lies
// on: +1 for the left of A→B, -1 for the right, 0 when within Eps of the
// line (scaled by the segment length to keep the test unit-consistent).
func (s Segment) Side(p Vec) int {
	c := s.B.Sub(s.A).Cross(p.Sub(s.A))
	scale := s.Len()
	if scale < Eps {
		scale = 1
	}
	switch {
	case c > Eps*scale:
		return 1
	case c < -Eps*scale:
		return -1
	default:
		return 0
	}
}

// Intersect computes the intersection of two segments. It returns the
// intersection point closest to s.A and ok=true when the segments share at
// least one point. Collinear overlapping segments report the overlap point
// closest to s.A.
func (s Segment) Intersect(o Segment) (Vec, bool) {
	t, ok := s.IntersectParam(o)
	if !ok {
		return Vec{}, false
	}
	return s.At(t), true
}

// IntersectParam returns the smallest parameter t in [0,1] along s at which
// s meets o, and whether the segments intersect at all.
func (s Segment) IntersectParam(o Segment) (float64, bool) {
	r := s.B.Sub(s.A)
	d := o.B.Sub(o.A)
	denom := r.Cross(d)
	diff := o.A.Sub(s.A)

	if math.Abs(denom) < Eps {
		// Parallel. Check collinearity.
		if math.Abs(diff.Cross(r)) > Eps*math.Max(1, r.Len()) {
			return 0, false
		}
		// Collinear: project o's endpoints onto s.
		rl2 := r.Len2()
		if rl2 < Eps*Eps {
			// s is a point.
			if o.Dist(s.A) <= Eps {
				return 0, true
			}
			return 0, false
		}
		t0 := diff.Dot(r) / rl2
		t1 := o.B.Sub(s.A).Dot(r) / rl2
		lo, hi := math.Min(t0, t1), math.Max(t0, t1)
		if hi < -Eps || lo > 1+Eps {
			return 0, false
		}
		return math.Max(0, lo), true
	}

	t := diff.Cross(d) / denom
	u := diff.Cross(r) / denom
	if t < -Eps || t > 1+Eps || u < -Eps || u > 1+Eps {
		return 0, false
	}
	return math.Min(1, math.Max(0, t)), true
}

// LineIntersect intersects the infinite lines through s and o. It returns
// ok=false for parallel lines.
func (s Segment) LineIntersect(o Segment) (Vec, bool) {
	r := s.B.Sub(s.A)
	d := o.B.Sub(o.A)
	denom := r.Cross(d)
	if math.Abs(denom) < Eps {
		return Vec{}, false
	}
	t := o.A.Sub(s.A).Cross(d) / denom
	return s.At(t), true
}

// Rect is an axis-aligned rectangle with Min at the lower-left corner.
type Rect struct {
	Min, Max Vec
}

// R constructs a Rect from two corner coordinates, normalizing the order.
func R(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Min: Vec{x0, y0}, Max: Vec{x1, y1}}
}

// W returns the width of the rectangle.
func (r Rect) W() float64 { return r.Max.X - r.Min.X }

// H returns the height of the rectangle.
func (r Rect) H() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of the rectangle.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the center point of the rectangle.
func (r Rect) Center() Vec { return Vec{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2} }

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Vec) bool {
	return p.X >= r.Min.X-Eps && p.X <= r.Max.X+Eps &&
		p.Y >= r.Min.Y-Eps && p.Y <= r.Max.Y+Eps
}

// ContainsStrict reports whether p lies strictly inside r (more than Eps
// from every edge).
func (r Rect) ContainsStrict(p Vec) bool {
	return p.X > r.Min.X+Eps && p.X < r.Max.X-Eps &&
		p.Y > r.Min.Y+Eps && p.Y < r.Max.Y-Eps
}

// Expand returns r grown by d on every side (shrunk for negative d).
func (r Rect) Expand(d float64) Rect {
	return Rect{Min: Vec{r.Min.X - d, r.Min.Y - d}, Max: Vec{r.Max.X + d, r.Max.Y + d}}
}

// Polygon returns the rectangle as a counter-clockwise polygon.
func (r Rect) Polygon() Polygon {
	return Polygon{
		r.Min,
		Vec{r.Max.X, r.Min.Y},
		r.Max,
		Vec{r.Min.X, r.Max.Y},
	}
}
