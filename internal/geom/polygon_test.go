package geom

import (
	"math"
	"math/rand/v2"
	"testing"
)

func unitSquare() Polygon { return R(0, 0, 10, 10).Polygon() }

func TestPolygonAreaOrientation(t *testing.T) {
	p := unitSquare()
	if !almostEq(p.Area(), 100, 1e-9) {
		t.Errorf("area = %v", p.Area())
	}
	rev := p.Reverse()
	if !almostEq(rev.Area(), -100, 1e-9) {
		t.Errorf("reversed area = %v", rev.Area())
	}
	if !rev.CCW().IsCCW() {
		t.Error("CCW() should produce counter-clockwise polygon")
	}
}

func TestPolygonContains(t *testing.T) {
	p := unitSquare()
	tests := []struct {
		name string
		pt   Vec
		want bool
	}{
		{"center", V(5, 5), true},
		{"outside", V(15, 5), false},
		{"on edge", V(10, 5), true},
		{"on vertex", V(0, 0), true},
		{"just outside edge", V(10.001, 5), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := p.Contains(tt.pt); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.pt, got, tt.want)
			}
		})
	}
}

func TestPolygonContainsConcave(t *testing.T) {
	// A U-shaped (concave) polygon.
	u := Polygon{V(0, 0), V(30, 0), V(30, 30), V(20, 30), V(20, 10), V(10, 10), V(10, 30), V(0, 30)}
	if !u.Contains(V(5, 5)) || !u.Contains(V(25, 20)) {
		t.Error("points in arms should be inside")
	}
	if u.Contains(V(15, 20)) {
		t.Error("point in the notch should be outside")
	}
}

func TestPolygonContainsStrict(t *testing.T) {
	p := unitSquare()
	if p.ContainsStrict(V(10, 5), 0.5) {
		t.Error("edge point should not be strictly inside")
	}
	if !p.ContainsStrict(V(5, 5), 0.5) {
		t.Error("center should be strictly inside")
	}
	if p.ContainsStrict(V(9.8, 5), 0.5) {
		t.Error("point within margin of edge should not be strictly inside")
	}
}

func TestPolygonClosestBoundaryPoint(t *testing.T) {
	p := unitSquare()
	pt, edge := p.ClosestBoundaryPoint(V(5, -3))
	if !pt.Eq(V(5, 0)) || edge != 0 {
		t.Errorf("closest = %v edge %d", pt, edge)
	}
	pt, _ = p.ClosestBoundaryPoint(V(5, 5)) // interior: nearest edge
	if !(pt.Eq(V(0, 5)) || pt.Eq(V(10, 5)) || pt.Eq(V(5, 0)) || pt.Eq(V(5, 10))) {
		t.Errorf("interior closest = %v", pt)
	}
}

func TestPolygonIntersectSegment(t *testing.T) {
	p := unitSquare()
	tt, edge, ok := p.IntersectSegment(Seg(V(-5, 5), V(5, 5)))
	if !ok {
		t.Fatal("expected hit")
	}
	if hit := Seg(V(-5, 5), V(5, 5)).At(tt); !hit.Eq(V(0, 5)) {
		t.Errorf("hit at %v", hit)
	}
	if edge != 3 { // left edge of CCW rect polygon is index 3
		t.Errorf("edge = %d", edge)
	}
	if _, _, ok := p.IntersectSegment(Seg(V(-5, 5), V(-1, 5))); ok {
		t.Error("segment stopping short should miss")
	}
}

func TestPolygonPerimeterCentroid(t *testing.T) {
	p := unitSquare()
	if !almostEq(p.Perimeter(), 40, 1e-9) {
		t.Errorf("perimeter = %v", p.Perimeter())
	}
	if got := p.Centroid(); !got.Eq(V(5, 5)) {
		t.Errorf("centroid = %v", got)
	}
}

func TestPolygonBounds(t *testing.T) {
	p := Polygon{V(2, 3), V(9, 1), V(7, 8)}
	b := p.Bounds()
	if b.Min != V(2, 1) || b.Max != V(9, 8) {
		t.Errorf("bounds = %+v", b)
	}
}

func TestClipHalfPlane(t *testing.T) {
	p := unitSquare()
	// Keep the left of the upward line x=5 (direction (0,1) at x=5 keeps x<=5...
	// left of a->b where a=(5,0), b=(5,10) is the half-plane x <= 5).
	clipped := p.ClipHalfPlane(V(5, 0), V(5, 10))
	if clipped == nil {
		t.Fatal("clip returned empty")
	}
	if !almostEq(clipped.Area(), 50, 1e-6) {
		t.Errorf("clipped area = %v, want 50", clipped.Area())
	}
	for _, v := range clipped {
		if v.X > 5+1e-9 {
			t.Errorf("vertex %v beyond clip line", v)
		}
	}
	// Clipping away everything.
	gone := p.ClipHalfPlane(V(-1, 0), V(-1, 10)) // keeps x <= -1
	if gone != nil {
		t.Errorf("expected empty polygon, got %v", gone)
	}
}

func TestClipHalfPlaneRepeatedIsStable(t *testing.T) {
	p := unitSquare()
	c1 := p.ClipHalfPlane(V(5, 0), V(5, 10))
	c2 := c1.ClipHalfPlane(V(5, 0), V(5, 10))
	if !almostEq(c1.Area(), c2.Area(), 1e-6) {
		t.Errorf("idempotent clip changed area: %v vs %v", c1.Area(), c2.Area())
	}
}

// Property: clipping can only shrink area, and all original points that were
// inside the half-plane remain inside the clipped polygon.
func TestClipHalfPlaneShrinks(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 200; trial++ {
		p := unitSquare()
		a := V(rng.Float64()*20-5, rng.Float64()*20-5)
		b := V(rng.Float64()*20-5, rng.Float64()*20-5)
		if a.Dist(b) < 0.1 {
			continue
		}
		clipped := p.ClipHalfPlane(a, b)
		if clipped == nil {
			continue
		}
		if clipped.Area() > p.Area()+1e-6 {
			t.Fatalf("trial %d: clip grew area %v -> %v", trial, p.Area(), clipped.Area())
		}
	}
}

func TestPolygonCentroidDegenerate(t *testing.T) {
	// Collinear polygon has zero area; centroid should fall back to vertex mean.
	p := Polygon{V(0, 0), V(5, 0), V(10, 0)}
	if got := p.Centroid(); !got.Eq(V(5, 0)) {
		t.Errorf("degenerate centroid = %v", got)
	}
}

func TestPolygonDist(t *testing.T) {
	p := unitSquare()
	if d := p.Dist(V(5, 15)); !almostEq(d, 5, 1e-9) {
		t.Errorf("dist above square = %v", d)
	}
	if d := p.Dist(V(5, 5)); !almostEq(d, 5, 1e-9) {
		t.Errorf("interior dist to boundary = %v", d)
	}
}

func TestPolygonEdgeWrap(t *testing.T) {
	p := unitSquare()
	last := p.Edge(3)
	if !last.A.Eq(V(0, 10)) || !last.B.Eq(V(0, 0)) {
		t.Errorf("edge 3 = %+v", last)
	}
	wrapped := p.Edge(4) // same as edge 0
	if !wrapped.A.Eq(p[0]) {
		t.Errorf("edge wrap failed: %+v", wrapped)
	}
}

func TestMinEnclosingCircleRandomShuffleStable(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	pts := make([]Vec, 40)
	for i := range pts {
		pts[i] = V(rng.Float64()*100, rng.Float64()*100)
	}
	base := MinEnclosingCircle(pts)
	for trial := 0; trial < 10; trial++ {
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		got := MinEnclosingCircle(pts)
		if math.Abs(got.R-base.R) > 1e-7 {
			t.Fatalf("MEC radius depends on order: %v vs %v", got.R, base.R)
		}
	}
}
