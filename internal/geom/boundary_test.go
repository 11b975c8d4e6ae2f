package geom

import (
	"math"
	"math/rand/v2"
	"testing"
)

// onBoundaryByDist is OnBoundary before its bounding-box reject: the
// distance to every edge.
func onBoundaryByDist(p Polygon, q Vec, tol float64) bool {
	for i := 0; i < len(p); i++ {
		if p.Edge(i).Dist(q) <= tol {
			return true
		}
	}
	return false
}

// boundaryPolygons are rectangles, triangles and stars, some far from
// the origin, in both orientations.
func boundaryPolygons(rng *rand.Rand) []Polygon {
	polys := []Polygon{
		R(0, 0, 10, 10).Polygon(),
		R(-1200.5, 300.25, -700, 900).Polygon(),
		{V(0, 0), V(500, 3), V(250, 400)},
		{V(0, 0), V(30, 0), V(30, 30), V(20, 30), V(20, 10), V(10, 10), V(10, 30), V(0, 30)},
	}
	for i := 0; i < 40; i++ {
		c := V(rng.Float64()*4000-2000, rng.Float64()*4000-2000)
		n := 3 + rng.IntN(6)
		r0, r1 := 5+rng.Float64()*50, 60+rng.Float64()*400
		poly := make(Polygon, 0, 2*n)
		for k := 0; k < 2*n; k++ {
			r := r1
			if k%2 == 1 {
				r = r0
			}
			ang := math.Pi * float64(k) / float64(n)
			poly = append(poly, V(c.X+r*math.Cos(ang), c.Y+r*math.Sin(ang)))
		}
		if i%2 == 1 {
			poly = poly.Reverse()
		}
		polys = append(polys, poly)
	}
	return polys
}

// nearBoundary samples points on, within a few ulps of, within 1e-9 m of
// and near a tol-sized band around an edge or a vertex of p.
func nearBoundary(rng *rand.Rand, p Polygon, tol float64) Vec {
	e := p.Edge(rng.IntN(len(p)))
	dir := e.Dir()
	normal := V(-dir.Y, dir.X)
	base := e.At(rng.Float64())
	switch rng.IntN(4) {
	case 0:
		base = e.A // a vertex
	case 1:
		base = e.At(rng.Float64()*0.02 - 0.01) // around a vertex, either side
	}
	offsets := []float64{0, 1e-12, 5e-10, 1e-9, 1e-9 * (1 - 1e-7), 1e-9 * (1 + 1e-7), 2e-9, 1e-3,
		tol, tol * (1 - 1e-12), tol * (1 + 1e-12), tol + 1e-3, tol + 1e-3*(1+1e-9), rng.Float64() * 2 * (tol + 1)}
	d := offsets[rng.IntN(len(offsets))]
	if rng.IntN(2) == 0 {
		d = -d
	}
	q := base.Add(normal.Scale(d))
	if rng.IntN(3) == 0 { // also slide along the edge
		q = q.Add(dir.Scale((rng.Float64()*2 - 1) * (tol + 2e-3)))
	}
	// A few ulps of jitter.
	return V(math.Nextafter(q.X, q.X+float64(rng.IntN(3)-1)), math.Nextafter(q.Y, q.Y+float64(rng.IntN(3)-1)))
}

// TestOnBoundaryMatchesDistance: OnBoundary with its padded edge-box
// reject answers as the per-edge distance test did, for points on,
// within 1e-9 m of, and a tol away from edges and vertices, at tolerances
// from 0 to far beyond the polygons' size; and ContainsStrict, which now
// tests the interior first, answers as the boundary-first order did.
func TestOnBoundaryMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 9))
	tols := []float64{0, Eps, 1e-6, 0.5, 3, 50, 1e3, 1e5}
	for _, p := range boundaryPolygons(rng) {
		for i := 0; i < 3000; i++ {
			tol := tols[rng.IntN(len(tols))]
			q := nearBoundary(rng, p, tol)
			if got, want := p.OnBoundary(q, tol), onBoundaryByDist(p, q, tol); got != want {
				t.Fatalf("OnBoundary(%v, %g) on %v = %v, per-edge distance says %v", q, tol, p, got, want)
			}
			if got, want := p.ContainsStrict(q, tol), !onBoundaryByDist(p, q, tol) && p.containsInterior(q); got != want {
				t.Fatalf("ContainsStrict(%v, %g) on %v = %v, boundary first says %v", q, tol, p, got, want)
			}
		}
	}
}

// TestRowCrossingsMatchInterior: a point is inside by the interior test
// exactly when an odd number of its row's crossings lie to its right.
func TestRowCrossingsMatchInterior(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 10))
	for _, p := range boundaryPolygons(rng) {
		b := p.Bounds()
		for i := 0; i < 2000; i++ {
			q := V(b.Min.X-5+rng.Float64()*(b.W()+10), b.Min.Y-5+rng.Float64()*(b.H()+10))
			switch i % 4 {
			case 0: // on a vertex's row
				q.Y = p[rng.IntN(len(p))].Y
			case 1: // on an edge
				q = nearBoundary(rng, p, 0)
			}
			right := 0
			for _, x := range p.AppendRowCrossings(nil, q.Y) {
				if q.X < x {
					right++
				}
			}
			if got, want := right%2 == 1, p.containsInterior(q); got != want {
				t.Fatalf("%v on %v: %d crossings to the right, interior test says %v", q, p, right, want)
			}
		}
	}
}
