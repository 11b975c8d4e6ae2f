package geom

import "math"

// Polygon is a simple (non-self-intersecting) polygon given as an ordered
// list of vertices. Vertex order may be clockwise or counter-clockwise;
// routines that care about orientation document it.
type Polygon []Vec

// Area returns the signed area of the polygon: positive for
// counter-clockwise vertex order, negative for clockwise.
func (p Polygon) Area() float64 {
	var sum float64
	n := len(p)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += p[i].Cross(p[j])
	}
	return sum / 2
}

// IsCCW reports whether the polygon's vertices are in counter-clockwise
// order.
func (p Polygon) IsCCW() bool { return p.Area() > 0 }

// Reverse returns a copy of the polygon with reversed vertex order.
func (p Polygon) Reverse() Polygon {
	out := make(Polygon, len(p))
	for i, v := range p {
		out[len(p)-1-i] = v
	}
	return out
}

// CCW returns the polygon in counter-clockwise order, copying only when a
// reversal is needed.
func (p Polygon) CCW() Polygon {
	if p.IsCCW() {
		return p
	}
	return p.Reverse()
}

// NumEdges returns the number of boundary edges.
func (p Polygon) NumEdges() int { return len(p) }

// Edge returns the i-th boundary edge, from vertex i to vertex i+1 (mod n).
func (p Polygon) Edge(i int) Segment {
	n := len(p)
	return Segment{A: p[i%n], B: p[(i+1)%n]}
}

// Contains reports whether q lies inside the polygon or on its boundary.
// It uses the even-odd ray-crossing rule with an explicit boundary test so
// that points within Eps of an edge count as contained.
func (p Polygon) Contains(q Vec) bool {
	if p.OnBoundary(q, Eps) {
		return true
	}
	return p.containsInterior(q)
}

// ContainsStrict reports whether q lies strictly inside the polygon, i.e.
// farther than margin from every edge. The interior test runs first: it is
// the cheaper one, and most points asked about lie outside.
func (p Polygon) ContainsStrict(q Vec, margin float64) bool {
	return p.containsInterior(q) && !p.OnBoundary(q, margin)
}

func (p Polygon) containsInterior(q Vec) bool {
	inside := false
	n := len(p)
	for i := 0; i < n; i++ {
		a, b := p[i], p[(i+1)%n]
		if (a.Y > q.Y) != (b.Y > q.Y) && q.X < crossX(a, b, q.Y) {
			inside = !inside
		}
	}
	return inside
}

// crossX is the x at which edge a→b meets the horizontal line through y,
// for an edge that straddles it.
func crossX(a, b Vec, y float64) float64 {
	return a.X + (y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
}

// AppendRowCrossings appends to dst the x of every edge crossing on the
// horizontal line through y, computed as the interior test computes them.
// So a point q with q.Y == y is strictly inside by the even-odd rule (the
// interior half of ContainsStrict) exactly when an odd number of the
// crossings exceed q.X.
func (p Polygon) AppendRowCrossings(dst []float64, y float64) []float64 {
	n := len(p)
	for i := 0; i < n; i++ {
		a, b := p[i], p[(i+1)%n]
		if (a.Y > y) != (b.Y > y) {
			dst = append(dst, crossX(a, b, y))
		}
	}
	return dst
}

// OnBoundary reports whether q lies within tol of the polygon boundary.
// An edge whose bounding box, padded by tol + 1e-3 m, excludes q is
// skipped before its distance is taken: the closest point lies in that
// box up to rounding far below 1e-3 m (for coordinates below about
// 10¹² m), so such an edge is farther than tol from q, and skipping it
// changes no answer.
func (p Polygon) OnBoundary(q Vec, tol float64) bool {
	pad := tol + 1e-3
	n := len(p)
	for i := 0; i < n; i++ {
		e := p.Edge(i)
		if q.X < min(e.A.X, e.B.X)-pad || q.X > max(e.A.X, e.B.X)+pad ||
			q.Y < min(e.A.Y, e.B.Y)-pad || q.Y > max(e.A.Y, e.B.Y)+pad {
			continue
		}
		if e.Dist(q) <= tol {
			return true
		}
	}
	return false
}

// ClosestBoundaryPoint returns the point on the polygon boundary closest to
// q, together with the index of the edge it lies on.
func (p Polygon) ClosestBoundaryPoint(q Vec) (Vec, int) {
	best := p[0]
	bestEdge := 0
	bestD := math.Inf(1)
	for i := 0; i < len(p); i++ {
		pt := p.Edge(i).ClosestPoint(q)
		if d := pt.Dist2(q); d < bestD {
			bestD = d
			best = pt
			bestEdge = i
		}
	}
	return best, bestEdge
}

// Dist returns the distance from q to the polygon boundary (zero if q is on
// the boundary; interior points still measure to the boundary).
func (p Polygon) Dist(q Vec) float64 {
	pt, _ := p.ClosestBoundaryPoint(q)
	return pt.Dist(q)
}

// IntersectSegment finds the first transversal crossing of segment s with
// the polygon boundary: the smallest parameter t along s at which s crosses
// any edge. It returns the edge index as well. ok is false when s misses
// the boundary. Edges parallel to s are skipped: a segment sliding exactly
// along a wall touches it but never crosses it, so grazing contact is not a
// hit (a sensor may travel along a boundary).
func (p Polygon) IntersectSegment(s Segment) (t float64, edge int, ok bool) {
	t = math.Inf(1)
	sDir := s.B.Sub(s.A)
	for i := 0; i < len(p); i++ {
		e := p.Edge(i)
		if math.Abs(sDir.Cross(e.B.Sub(e.A))) < Eps*math.Max(1, sDir.Len()*e.Len()) {
			continue
		}
		if ti, hit := s.IntersectParam(e); hit && ti < t {
			t = ti
			edge = i
			ok = true
		}
	}
	if !ok {
		return 0, 0, false
	}
	return t, edge, true
}

// Perimeter returns the total boundary length of the polygon.
func (p Polygon) Perimeter() float64 {
	var sum float64
	for i := 0; i < len(p); i++ {
		sum += p.Edge(i).Len()
	}
	return sum
}

// Centroid returns the area centroid of the polygon.
func (p Polygon) Centroid() Vec {
	var cx, cy, a float64
	n := len(p)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		cross := p[i].Cross(p[j])
		a += cross
		cx += (p[i].X + p[j].X) * cross
		cy += (p[i].Y + p[j].Y) * cross
	}
	if math.Abs(a) < Eps {
		// Degenerate polygon: average the vertices.
		var s Vec
		for _, v := range p {
			s = s.Add(v)
		}
		return s.Scale(1 / float64(len(p)))
	}
	return Vec{cx / (3 * a), cy / (3 * a)}
}

// Bounds returns the axis-aligned bounding rectangle of the polygon.
func (p Polygon) Bounds() Rect {
	if len(p) == 0 {
		return Rect{}
	}
	r := Rect{Min: p[0], Max: p[0]}
	for _, v := range p[1:] {
		r.Min.X = math.Min(r.Min.X, v.X)
		r.Min.Y = math.Min(r.Min.Y, v.Y)
		r.Max.X = math.Max(r.Max.X, v.X)
		r.Max.Y = math.Max(r.Max.Y, v.Y)
	}
	return r
}

// Clone returns a deep copy of the polygon.
func (p Polygon) Clone() Polygon {
	out := make(Polygon, len(p))
	copy(out, p)
	return out
}

// ClipHalfPlane clips a convex polygon to the half-plane on the left of the
// directed line a→b (points q with (b-a) × (q-a) >= 0). The result is convex;
// it may be empty. This is the Sutherland–Hodgman step used to build Voronoi
// cells by repeated bisector clipping.
func (p Polygon) ClipHalfPlane(a, b Vec) Polygon {
	if len(p) == 0 {
		return nil
	}
	dir := b.Sub(a)
	inside := func(q Vec) bool { return dir.Cross(q.Sub(a)) >= -Eps }
	out := make(Polygon, 0, len(p)+2)
	n := len(p)
	for i := 0; i < n; i++ {
		cur, next := p[i], p[(i+1)%n]
		curIn, nextIn := inside(cur), inside(next)
		if curIn {
			out = append(out, cur)
		}
		if curIn != nextIn {
			if pt, ok := Seg(cur, next).LineIntersect(Seg(a, b)); ok {
				out = append(out, pt)
			}
		}
	}
	if len(out) < 3 {
		return nil
	}
	return out
}
