package coverage

import (
	"math/rand/v2"
	"testing"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// Tests pinning the probe-accelerated coverage kernels to brute-force
// oracles: results must be bit-identical on randomized obstacle fields,
// sensor layouts, and radii. The grid scans' oracle is refCounts in
// scan_test.go.

func abRandomField(t *testing.T, rng *rand.Rand) *field.Field {
	t.Helper()
	f, err := field.RandomObstacles(rng, field.RandomObstacleConfig{
		MinCount:  2,
		MaxCount:  8,
		MinSide:   60,
		MaxSide:   350,
		KeepClear: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// abPositions samples sensor positions, mostly free but some deliberately
// inside obstacles or out of bounds to exercise the blocked-sensor skip.
func abPositions(rng *rand.Rand, f *field.Field, n int) []geom.Vec {
	out := make([]geom.Vec, 0, n)
	for len(out) < n {
		switch rng.IntN(8) {
		case 0:
			out = append(out, geom.V(rng.Float64()*1400-200, rng.Float64()*1400-200))
		default:
			out = append(out, f.RandomFreePoint(rng, f.Bounds()))
		}
	}
	return out
}

// exclusiveAreaRef is the reference ExclusiveArea: every sample of the
// disk's bounding square, tested against every other sensor through
// Field.Visible.
func exclusiveAreaRef(f *field.Field, center geom.Vec, rs float64, others []geom.Vec, res float64) float64 {
	rs2 := rs * rs
	los := len(f.Obstacles()) > 0
	count := 0
	for y := center.Y - rs; y <= center.Y+rs; y += res {
		for x := center.X - rs; x <= center.X+rs; x += res {
			p := geom.V(x, y)
			if p.Dist2(center) > rs2 || !f.Bounds().Contains(p) || !f.Free(p) {
				continue
			}
			if los && !f.Visible(center, p) {
				continue
			}
			exclusive := true
			for _, o := range others {
				if p.Dist2(o) <= rs2 && (!los || f.Visible(o, p)) {
					exclusive = false
					break
				}
			}
			if exclusive {
				count++
			}
		}
	}
	return float64(count) * res * res
}

func TestExclusiveAreaAccelMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(505, 23))
	for trial := 0; trial < 8; trial++ {
		f := abRandomField(t, rng)
		for q := 0; q < 6; q++ {
			center := f.RandomFreePoint(rng, f.Bounds())
			rs := 15 + rng.Float64()*50
			// Mix of near, far, and blocked others: the prefilter must
			// discard far/blocked ones without changing the result.
			others := abPositions(rng, f, 3+rng.IntN(20))

			fast := ExclusiveArea(f, center, rs, others, rs/8)
			slow := exclusiveAreaRef(f, center, rs, others, rs/8)
			if fast != slow {
				t.Fatalf("trial %d/%d: ExclusiveArea accel %v != brute %v (center=%v rs=%v, %d others)",
					trial, q, fast, slow, center, rs, len(others))
			}
		}
	}
}
