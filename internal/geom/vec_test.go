package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecBasicOps(t *testing.T) {
	tests := []struct {
		name string
		got  Vec
		want Vec
	}{
		{"add", V(1, 2).Add(V(3, -1)), V(4, 1)},
		{"sub", V(1, 2).Sub(V(3, -1)), V(-2, 3)},
		{"scale", V(1, -2).Scale(2.5), V(2.5, -5)},
		{"neg", V(1, -2).Neg(), V(-1, 2)},
		{"perp", V(1, 0).Perp(), V(0, 1)},
		{"lerp-mid", V(0, 0).Lerp(V(10, 4), 0.5), V(5, 2)},
		{"towards", V(0, 0).Towards(V(10, 0), 3), V(3, 0)},
		{"unit-zero", V(0, 0).Unit(), V(0, 0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !tt.got.Eq(tt.want) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestVecScalarOps(t *testing.T) {
	tests := []struct {
		name string
		got  float64
		want float64
	}{
		{"dot", V(1, 2).Dot(V(3, 4)), 11},
		{"cross", V(1, 0).Cross(V(0, 1)), 1},
		{"cross-neg", V(0, 1).Cross(V(1, 0)), -1},
		{"len", V(3, 4).Len(), 5},
		{"len2", V(3, 4).Len2(), 25},
		{"dist", V(1, 1).Dist(V(4, 5)), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !almostEq(tt.got, tt.want, 1e-12) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestVecRotate(t *testing.T) {
	v := V(1, 0)
	got := v.Rotate(math.Pi / 2)
	if !got.Eq(V(0, 1)) {
		t.Errorf("rotate 90: got %v", got)
	}
	got = v.Rotate(math.Pi)
	if !got.Eq(V(-1, 0)) {
		t.Errorf("rotate 180: got %v", got)
	}
}

func TestVecClamp(t *testing.T) {
	r := R(0, 0, 10, 10)
	tests := []struct {
		in, want Vec
	}{
		{V(-5, 5), V(0, 5)},
		{V(5, 15), V(5, 10)},
		{V(3, 4), V(3, 4)},
		{V(20, -20), V(10, 0)},
	}
	for _, tt := range tests {
		if got := tt.in.Clamp(r); !got.Eq(tt.want) {
			t.Errorf("Clamp(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// Property: rotation preserves length.
func TestVecRotatePreservesLength(t *testing.T) {
	f := func(x, y, theta float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(theta) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(theta, 0) {
			return true
		}
		x = math.Mod(x, 1e6)
		y = math.Mod(y, 1e6)
		v := V(x, y)
		rot := v.Rotate(math.Mod(theta, 2*math.Pi))
		return almostEq(v.Len(), rot.Len(), 1e-6*(1+v.Len()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distance is symmetric and satisfies the triangle inequality.
func TestVecDistanceMetric(t *testing.T) {
	clamp := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(x, 1e5)
	}
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := V(clamp(ax), clamp(ay))
		b := V(clamp(bx), clamp(by))
		c := V(clamp(cx), clamp(cy))
		if !almostEq(a.Dist(b), b.Dist(a), 1e-9) {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Unit yields a vector of length 1 for non-degenerate input.
func TestVecUnitLength(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		v := V(math.Mod(x, 1e9), math.Mod(y, 1e9))
		if v.Len() < 1e-6 {
			return true
		}
		return almostEq(v.Unit().Len(), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
