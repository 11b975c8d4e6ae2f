package geom

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestSegmentClosestPoint(t *testing.T) {
	s := Seg(V(0, 0), V(10, 0))
	tests := []struct {
		name string
		p    Vec
		want Vec
	}{
		{"interior projection", V(5, 3), V(5, 0)},
		{"clamp to A", V(-4, 2), V(0, 0)},
		{"clamp to B", V(14, -2), V(10, 0)},
		{"on segment", V(7, 0), V(7, 0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := s.ClosestPoint(tt.p); !got.Eq(tt.want) {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSegmentDegenerateClosestPoint(t *testing.T) {
	s := Seg(V(3, 3), V(3, 3))
	if got := s.ClosestPoint(V(10, 10)); !got.Eq(V(3, 3)) {
		t.Errorf("degenerate segment closest point = %v", got)
	}
	if d := s.Dist(V(3, 7)); !almostEq(d, 4, 1e-12) {
		t.Errorf("degenerate segment dist = %v, want 4", d)
	}
}

func TestSegmentSide(t *testing.T) {
	s := Seg(V(0, 0), V(10, 0))
	if s.Side(V(5, 1)) != 1 {
		t.Error("expected left side +1")
	}
	if s.Side(V(5, -1)) != -1 {
		t.Error("expected right side -1")
	}
	if s.Side(V(5, 0)) != 0 {
		t.Error("expected on-line 0")
	}
}

func TestSegmentIntersect(t *testing.T) {
	tests := []struct {
		name   string
		s, o   Segment
		want   Vec
		wantOK bool
	}{
		{"crossing", Seg(V(0, 0), V(10, 10)), Seg(V(0, 10), V(10, 0)), V(5, 5), true},
		{"miss", Seg(V(0, 0), V(1, 1)), Seg(V(5, 0), V(5, 10)), Vec{}, false},
		{"touch at endpoint", Seg(V(0, 0), V(5, 0)), Seg(V(5, 0), V(5, 5)), V(5, 0), true},
		{"parallel disjoint", Seg(V(0, 0), V(10, 0)), Seg(V(0, 1), V(10, 1)), Vec{}, false},
		{"collinear overlap", Seg(V(0, 0), V(10, 0)), Seg(V(4, 0), V(20, 0)), V(4, 0), true},
		{"collinear disjoint", Seg(V(0, 0), V(3, 0)), Seg(V(4, 0), V(8, 0)), Vec{}, false},
		{"T junction", Seg(V(0, 0), V(10, 0)), Seg(V(5, -5), V(5, 0)), V(5, 0), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := tt.s.Intersect(tt.o)
			if ok != tt.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tt.wantOK)
			}
			if ok && !got.Eq(tt.want) {
				t.Errorf("point = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSegmentLineIntersect(t *testing.T) {
	// Lines extend beyond segment extents.
	s := Seg(V(0, 0), V(1, 0))
	o := Seg(V(5, -1), V(5, 1))
	got, ok := s.LineIntersect(o)
	if !ok || !got.Eq(V(5, 0)) {
		t.Errorf("LineIntersect = %v, %v", got, ok)
	}
	if _, ok := s.LineIntersect(Seg(V(0, 2), V(1, 2))); ok {
		t.Error("parallel lines should not intersect")
	}
}

func TestRectBasics(t *testing.T) {
	r := R(10, 20, 0, 5) // intentionally swapped corners
	if r.Min != V(0, 5) || r.Max != V(10, 20) {
		t.Fatalf("R did not normalize: %+v", r)
	}
	if r.W() != 10 || r.H() != 15 {
		t.Errorf("W/H = %v/%v", r.W(), r.H())
	}
	if r.Area() != 150 {
		t.Errorf("Area = %v", r.Area())
	}
	if !r.Contains(V(5, 10)) || r.Contains(V(-1, 10)) {
		t.Error("Contains misbehaves")
	}
	if !r.ContainsStrict(V(5, 10)) || r.ContainsStrict(V(0, 5)) {
		t.Error("ContainsStrict misbehaves")
	}
	if got := r.Center(); !got.Eq(V(5, 12.5)) {
		t.Errorf("Center = %v", got)
	}
}

func TestRectPolygonIsCCW(t *testing.T) {
	p := R(0, 0, 4, 3).Polygon()
	if !p.IsCCW() {
		t.Error("rect polygon should be CCW")
	}
	if !almostEq(p.Area(), 12, 1e-12) {
		t.Errorf("area = %v", p.Area())
	}
}

// Property: the closest point on a segment is never farther than either
// endpoint.
func TestSegmentClosestPointOptimality(t *testing.T) {
	clamp := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(x, 1e4)
	}
	f := func(ax, ay, bx, by, px, py float64) bool {
		s := Seg(V(clamp(ax), clamp(ay)), V(clamp(bx), clamp(by)))
		p := V(clamp(px), clamp(py))
		d := s.Dist(p)
		return d <= p.Dist(s.A)+1e-9 && d <= p.Dist(s.B)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: if two segments intersect, the reported point lies within Eps
// of both segments.
func TestSegmentIntersectPointOnBoth(t *testing.T) {
	clamp := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(x, 1e3)
	}
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		s := Seg(V(clamp(ax), clamp(ay)), V(clamp(bx), clamp(by)))
		o := Seg(V(clamp(cx), clamp(cy)), V(clamp(dx), clamp(dy)))
		p, ok := s.Intersect(o)
		if !ok {
			return true
		}
		return s.Dist(p) < 1e-5 && o.Dist(p) < 1e-5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSegmentLenReversedBits pins the identity the line-of-sight kernel
// relies on to reuse its direction length for the grazing check:
// Seg(a, b).Len() is Hypot(a-b) and b.Sub(a).Len() is Hypot(b-a); the
// differences are exact negations and Hypot takes absolute values, so the
// two are bit-identical.
func TestSegmentLenReversedBits(t *testing.T) {
	rng := rand.New(rand.NewPCG(1207, 2))
	for i := 0; i < 100000; i++ {
		a := V(rng.NormFloat64()*1e3, rng.NormFloat64()*1e3)
		b := V(rng.NormFloat64()*1e3, rng.NormFloat64()*1e3)
		if i%3 == 0 {
			b = a.Add(V(rng.NormFloat64()*1e-6, rng.NormFloat64()*1e-6))
		}
		if got, want := b.Sub(a).Len(), Seg(a, b).Len(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("a=%v b=%v: Hypot(b-a) = %v, Seg.Len = %v", a, b, got, want)
		}
	}
}
