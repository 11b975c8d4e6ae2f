package geom

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestCircleContains(t *testing.T) {
	c := Circle{C: V(0, 0), R: 5}
	if !c.Contains(V(3, 4)) {
		t.Error("boundary point should be contained")
	}
	if !c.Contains(V(1, 1)) {
		t.Error("interior point should be contained")
	}
	if c.Contains(V(4, 4)) {
		t.Error("exterior point should not be contained")
	}
}

func TestCircleIntersectSegment(t *testing.T) {
	c := Circle{C: V(0, 0), R: 5}
	tests := []struct {
		name       string
		s          Segment
		wantOK     bool
		wantT0, t1 float64
	}{
		{"through center", Seg(V(-10, 0), V(10, 0)), true, 0.25, 0.75},
		{"miss", Seg(V(-10, 6), V(10, 6)), false, 0, 0},
		{"tangent", Seg(V(-10, 5), V(10, 5)), true, 0.5, 0.5},
		{"fully inside", Seg(V(-1, 0), V(1, 0)), true, 0, 1},
		{"starts inside", Seg(V(0, 0), V(10, 0)), true, 0, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t0, t1, ok := c.IntersectSegment(tt.s)
			if ok != tt.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tt.wantOK)
			}
			if ok && (!almostEq(t0, tt.wantT0, 1e-9) || !almostEq(t1, tt.t1, 1e-9)) {
				t.Errorf("interval = [%v,%v], want [%v,%v]", t0, t1, tt.wantT0, tt.t1)
			}
		})
	}
}

func TestCircleIntersectSegmentDegenerate(t *testing.T) {
	c := Circle{C: V(0, 0), R: 5}
	if _, _, ok := c.IntersectSegment(Seg(V(1, 1), V(1, 1))); !ok {
		t.Error("point inside circle should intersect")
	}
	if _, _, ok := c.IntersectSegment(Seg(V(9, 9), V(9, 9))); ok {
		t.Error("point outside circle should not intersect")
	}
}

func TestCircleIntersectCircle(t *testing.T) {
	a := Circle{C: V(0, 0), R: 5}
	b := Circle{C: V(8, 0), R: 5}
	p1, p2, ok := a.IntersectCircle(b)
	if !ok {
		t.Fatal("expected intersection")
	}
	for _, p := range []Vec{p1, p2} {
		if !almostEq(p.Dist(a.C), 5, 1e-9) || !almostEq(p.Dist(b.C), 5, 1e-9) {
			t.Errorf("intersection point %v not on both circles", p)
		}
	}
	if _, _, ok := a.IntersectCircle(Circle{C: V(20, 0), R: 5}); ok {
		t.Error("distant circles should not intersect")
	}
	if _, _, ok := a.IntersectCircle(Circle{C: V(1, 0), R: 0.5}); ok {
		t.Error("nested circles should not intersect")
	}
}

func TestMinEnclosingCircleKnown(t *testing.T) {
	tests := []struct {
		name string
		pts  []Vec
		want Circle
	}{
		{"empty", nil, Circle{}},
		{"single", []Vec{V(2, 3)}, Circle{C: V(2, 3), R: 0}},
		{"pair", []Vec{V(0, 0), V(10, 0)}, Circle{C: V(5, 0), R: 5}},
		{"square", []Vec{V(0, 0), V(10, 0), V(10, 10), V(0, 10)},
			Circle{C: V(5, 5), R: 5 * math.Sqrt2}},
		{"collinear", []Vec{V(0, 0), V(5, 0), V(10, 0)}, Circle{C: V(5, 0), R: 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := MinEnclosingCircle(tt.pts)
			if !got.C.Eq(tt.want.C) || !almostEq(got.R, tt.want.R, 1e-9) {
				t.Errorf("got %+v, want %+v", got, tt.want)
			}
		})
	}
}

// Property: the minimal enclosing circle contains every input point and is
// no larger than the circle centered at the centroid through the farthest
// point.
func TestMinEnclosingCircleProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(20)
		pts := make([]Vec, n)
		var centroid Vec
		for i := range pts {
			pts[i] = V(rng.Float64()*100, rng.Float64()*100)
			centroid = centroid.Add(pts[i])
		}
		centroid = centroid.Scale(1 / float64(n))
		mec := MinEnclosingCircle(pts)
		var rad float64
		for _, p := range pts {
			if !mec.Contains(p) && mec.C.Dist(p) > mec.R+1e-7 {
				t.Fatalf("trial %d: point %v outside MEC %+v (dist %v)", trial, p, mec, mec.C.Dist(p))
			}
			rad = math.Max(rad, centroid.Dist(p))
		}
		if mec.R > rad+1e-7 {
			t.Fatalf("trial %d: MEC radius %v exceeds centroid bound %v", trial, mec.R, rad)
		}
	}
}
