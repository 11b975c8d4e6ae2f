package geom

import "math"

// Circle is a disk identified by its center and radius.
type Circle struct {
	C Vec
	R float64
}

// Contains reports whether p lies inside or on the circle.
func (c Circle) Contains(p Vec) bool { return c.C.Dist2(p) <= (c.R+Eps)*(c.R+Eps) }

// Area returns the area of the disk.
func (c Circle) Area() float64 { return math.Pi * c.R * c.R }

// IntersectSegment returns the portion of segment s inside the circle as a
// parameter interval [t0, t1] ⊆ [0, 1] along s, and whether the segment
// touches the disk at all.
func (c Circle) IntersectSegment(s Segment) (t0, t1 float64, ok bool) {
	d := s.B.Sub(s.A)
	f := s.A.Sub(c.C)
	a := d.Len2()
	if a < Eps*Eps {
		if c.Contains(s.A) {
			return 0, 0, true
		}
		return 0, 0, false
	}
	b := 2 * f.Dot(d)
	cc := f.Len2() - c.R*c.R
	disc := b*b - 4*a*cc
	if disc < 0 {
		return 0, 0, false
	}
	sq := math.Sqrt(disc)
	t0 = (-b - sq) / (2 * a)
	t1 = (-b + sq) / (2 * a)
	t0 = math.Max(0, t0)
	t1 = math.Min(1, t1)
	if t0 > t1 {
		return 0, 0, false
	}
	return t0, t1, true
}

// IntersectCircle returns the two intersection points of circles c and o.
// ok is false when the circles do not intersect or are identical.
func (c Circle) IntersectCircle(o Circle) (p1, p2 Vec, ok bool) {
	d := c.C.Dist(o.C)
	if d < Eps || d > c.R+o.R+Eps || d < math.Abs(c.R-o.R)-Eps {
		return Vec{}, Vec{}, false
	}
	a := (c.R*c.R - o.R*o.R + d*d) / (2 * d)
	h2 := c.R*c.R - a*a
	if h2 < 0 {
		h2 = 0
	}
	h := math.Sqrt(h2)
	mid := c.C.Add(o.C.Sub(c.C).Scale(a / d))
	perp := o.C.Sub(c.C).Unit().Perp().Scale(h)
	return mid.Add(perp), mid.Sub(perp), true
}

// MinEnclosingCircle returns the smallest circle containing all points.
// It runs Welzl's algorithm in expected linear time over the (shuffled by
// the caller if adversarial) input. An empty input yields the zero circle.
func MinEnclosingCircle(points []Vec) Circle {
	if len(points) == 0 {
		return Circle{}
	}
	c := Circle{C: points[0], R: 0}
	for i := 1; i < len(points); i++ {
		if c.Contains(points[i]) {
			continue
		}
		c = Circle{C: points[i], R: 0}
		for j := 0; j < i; j++ {
			if c.Contains(points[j]) {
				continue
			}
			c = circleFrom2(points[i], points[j])
			for k := 0; k < j; k++ {
				if c.Contains(points[k]) {
					continue
				}
				c = circleFrom3(points[i], points[j], points[k])
			}
		}
	}
	return c
}

func circleFrom2(a, b Vec) Circle {
	return Circle{C: a.Lerp(b, 0.5), R: a.Dist(b) / 2}
}

func circleFrom3(a, b, c Vec) Circle {
	// Circumcenter via perpendicular bisector intersection.
	ab := b.Sub(a)
	ac := c.Sub(a)
	cross := ab.Cross(ac)
	if math.Abs(cross) < Eps {
		// Degenerate: fall back to the widest pair.
		c1 := circleFrom2(a, b)
		c2 := circleFrom2(a, c)
		c3 := circleFrom2(b, c)
		best := c1
		if c2.R > best.R {
			best = c2
		}
		if c3.R > best.R {
			best = c3
		}
		return best
	}
	abLen2 := ab.Len2()
	acLen2 := ac.Len2()
	ux := (ac.Y*abLen2 - ab.Y*acLen2) / (2 * cross)
	uy := (ab.X*acLen2 - ac.X*abLen2) / (2 * cross)
	center := a.Add(Vec{ux, uy})
	return Circle{C: center, R: center.Dist(a)}
}
