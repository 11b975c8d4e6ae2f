package geom

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestWithinDistMatchesDist pins WithinDist and CloserThan to the exact
// Dist comparisons they replace (<= and <), including pairs engineered to
// land within float-rounding range of the radius — the regime where a
// naive squared comparison can order differently than Hypot.
func TestWithinDistMatchesDist(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 42))
	check := func(v, w Vec, r float64) {
		t.Helper()
		if got, want := v.WithinDist(w, r), v.Dist(w) <= r; got != want {
			t.Fatalf("WithinDist(%v, %v, %.17g) = %v, Dist comparison = %v (d=%.17g)",
				v, w, r, got, want, v.Dist(w))
		}
		if got, want := v.CloserThan(w, r), v.Dist(w) < r; got != want {
			t.Fatalf("CloserThan(%v, %v, %.17g) = %v, Dist comparison = %v (d=%.17g)",
				v, w, r, got, want, v.Dist(w))
		}
	}
	for i := 0; i < 200000; i++ {
		v := V(rng.Float64()*2000-500, rng.Float64()*2000-500)
		w := V(rng.Float64()*2000-500, rng.Float64()*2000-500)
		switch i % 4 {
		case 0:
			check(v, w, rng.Float64()*1500)
		case 1:
			// Radius exactly at, or within ulps of, the true distance.
			d := v.Dist(w)
			check(v, w, d)
			check(v, w, math.Nextafter(d, 0))
			check(v, w, math.Nextafter(d, math.Inf(1)))
		case 2:
			// Axis-aligned pairs: distance equals a coordinate delta.
			w.Y = v.Y
			check(v, w, math.Abs(w.X-v.X))
		default:
			check(v, w, rng.Float64()*1e-6) // tiny radii
		}
	}
	// Degenerate cases.
	check(V(1, 2), V(1, 2), 0)
	check(V(1, 2), V(1, 2), math.Inf(1))
	if V(0, 0).WithinDist(V(0, 0), -1) || V(0, 0).CloserThan(V(0, 0), -1) {
		t.Fatal("negative radius must report false")
	}
}
