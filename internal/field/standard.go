package field

import (
	"fmt"
	"math"
	"math/rand/v2"

	"mobisense/internal/geom"
)

// The standard experimental geometry of the paper (§4.3, §6): a
// 1000 × 1000 m field with the base station at the origin. The named
// environments built on it are field specs in the scenario registry.

// StandardSize is the side length of the paper's square field, in meters.
const StandardSize = 1000.0

// StandardBounds returns the paper's 1000×1000 m field rectangle.
func StandardBounds() geom.Rect { return geom.R(0, 0, StandardSize, StandardSize) }

// RandomObstacleConfig controls RandomObstacles (§6.4).
type RandomObstacleConfig struct {
	MinCount, MaxCount int     // number of rectangles, uniform in [MinCount, MaxCount]
	MinSide, MaxSide   float64 // rectangle side lengths, uniform in [MinSide, MaxSide]
	KeepClear          float64 // radius around the reference point kept obstacle-free
}

// DefaultRandomObstacleConfig mirrors §6.4: between 1 and 4 rectangular
// obstacles of random size that may overlap but must not partition the
// field.
func DefaultRandomObstacleConfig() RandomObstacleConfig {
	return RandomObstacleConfig{
		MinCount:  1,
		MaxCount:  4,
		MinSide:   80,
		MaxSide:   400,
		KeepClear: 30,
	}
}

// ClampedSides returns the side range the generator actually samples
// within a w×h field: over-wide rectangles clamp to the field
// dimensions so their corners stay inside the bounds. Anything sizing
// obstacles from a generator config (the density→count axis) must use
// this, not the raw MinSide/MaxSide.
func (cfg RandomObstacleConfig) ClampedSides(w, h float64) (minSide, maxSide float64) {
	maxSide = math.Min(cfg.MaxSide, math.Min(w, h))
	minSide = math.Min(cfg.MinSide, maxSide)
	return minSide, maxSide
}

// RandomObstacles generates a standard-size field with random rectangular
// obstacles per §6.4. Layouts that partition the field or bury the
// reference point are rejected and regenerated; the function errors only if
// no valid layout is found after many attempts.
func RandomObstacles(rng *rand.Rand, cfg RandomObstacleConfig) (*Field, error) {
	bounds := StandardBounds()
	return randomObstaclesIn(rng, bounds, bounds.Min, nil, cfg)
}

// randomObstaclesIn is the generalized §6.4 generator behind both
// RandomObstacles and seeded Specs: it scatters random rectangles over
// bounds (on top of any fixed obstacles), keeps the reference point's
// neighborhood clear, and retries layouts that partition the free space.
// For the standard bounds with the reference at the origin and no fixed
// obstacles it consumes the random stream exactly like the original
// RandomObstacles, so pre-spec seeds reproduce bit-identical layouts.
func randomObstaclesIn(rng *rand.Rand, bounds geom.Rect, ref geom.Vec, fixed []geom.Polygon, cfg RandomObstacleConfig) (*Field, error) {
	if cfg.MaxCount < cfg.MinCount || cfg.MinCount < 0 {
		return nil, fmt.Errorf("field: invalid obstacle count range [%d,%d]", cfg.MinCount, cfg.MaxCount)
	}
	// Clamp the side range to the field dimensions: a generator tuned for
	// the standard 1000 m field may be applied to a small custom one (the
	// field.obstacles/field.density axes inject the §6.4 defaults into any
	// field), and an over-wide rectangle would otherwise sample its corner
	// from a negative interval and land outside the bounds. For the
	// standard geometry this is a no-op, so pre-spec random streams are
	// unchanged.
	minSide, maxSide := cfg.ClampedSides(bounds.W(), bounds.H())
	for attempt := 0; attempt < 200; attempt++ {
		n := cfg.MinCount
		if cfg.MaxCount > cfg.MinCount {
			n += rng.IntN(cfg.MaxCount - cfg.MinCount + 1)
		}
		obstacles := make([]geom.Polygon, 0, len(fixed)+n)
		obstacles = append(obstacles, fixed...)
		ok := true
		for i := 0; i < n; i++ {
			w := minSide + rng.Float64()*(maxSide-minSide)
			h := minSide + rng.Float64()*(maxSide-minSide)
			x := bounds.Min.X + rng.Float64()*(bounds.W()-w)
			y := bounds.Min.Y + rng.Float64()*(bounds.H()-h)
			r := geom.R(x, y, x+w, y+h)
			// Keep the reference point's neighborhood clear.
			if r.Expand(cfg.KeepClear).Contains(ref) {
				ok = false
				break
			}
			obstacles = append(obstacles, r.Polygon())
		}
		if !ok {
			continue
		}
		f, err := New(bounds, obstacles, WithReference(ref))
		if err == nil {
			return f, nil
		}
	}
	return nil, fmt.Errorf("field: no valid random obstacle layout after 200 attempts")
}
