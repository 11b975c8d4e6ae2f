package coverage

import (
	"math/rand/v2"
	"testing"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

func (e *Estimator) cellCenter(ix, iy int) geom.Vec {
	return geom.V(e.cx[ix], e.cy[iy])
}

// twoObstacleField is the registry's two-obstacles scenario: two wall
// slabs on the paper's 1000×1000 m field.
func twoObstacleField(tb testing.TB) *field.Field {
	tb.Helper()
	f, err := field.New(field.StandardBounds(), []geom.Polygon{
		geom.R(500, 40, 550, 500).Polygon(),
		geom.R(120, 500, 450, 550).Polygon(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// TestEstimatorMaskMatchesPerCell: the estimator's free mask and free
// cell count equal the per-cell Contains && Free loop NewEstimator used
// to run, on obstacle-free, fixed, non-convex and random fields, with
// bounds that are not multiples of the resolution.
func TestEstimatorMaskMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	fields := []*field.Field{
		field.MustNew(field.StandardBounds(), nil),
		twoObstacleField(t),
		field.MustNew(geom.R(-3.3, 1.7, 402.2, 311.9), []geom.Polygon{
			{geom.V(20, 20), geom.V(90, 20), geom.V(90, 90), geom.V(70, 90), geom.V(70, 40), geom.V(40, 40), geom.V(40, 90), geom.V(20, 90)},
			{geom.V(200, 50), geom.V(390, 120), geom.V(150, 300)},
			geom.R(300.05, -20, 330, 200).Polygon(),
		}),
	}
	for i := 0; i < 4; i++ {
		fields = append(fields, abRandomField(t, rng))
	}
	for fi, f := range fields {
		for _, res := range []float64{1, 2.5, 5, 7, 10} {
			e := NewEstimator(f, res)
			b := f.Bounds()
			nFree := 0
			for iy := 0; iy < e.ny; iy++ {
				for ix := 0; ix < e.nx; ix++ {
					p := e.cellCenter(ix, iy)
					want := b.Contains(p) && f.Free(p)
					if want {
						nFree++
					}
					if got := e.free[iy*e.nx+ix]; got != want {
						t.Fatalf("field %d, res %g: cell (%d, %d) at %v: mask %v, per-cell %v", fi, res, ix, iy, p, got, want)
					}
				}
			}
			if e.nFree != nFree || len(e.free) != e.nx*e.ny {
				t.Fatalf("field %d, res %g: nFree %d of %d cells, per-cell %d of %d", fi, res, e.nFree, len(e.free), nFree, e.nx*e.ny)
			}
		}
	}
}
