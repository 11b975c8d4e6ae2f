package baseline

import (
	"math"

	"mobisense/internal/geom"
)

// StripPattern generates the strip-based asymptotically optimal deployment
// pattern of Bai et al. [1] for general rc/rs, used as the OPT baseline of
// Figures 9 and 11. Sensors are placed in horizontal rows with intra-row
// spacing d1 = min(rc, √3·rs) and row separation d2 = rs + √(rs² − d1²/4);
// when d2 exceeds rc, a vertical connector chain along the left edge keeps
// the rows one-connected. Placement fills rows bottom-up and stops after n
// sensors.
func StripPattern(bounds geom.Rect, n int, rc, rs float64) []geom.Vec {
	if n <= 0 {
		return nil
	}
	d1 := math.Min(rc, math.Sqrt(3)*rs)
	d2 := rs + math.Sqrt(math.Max(0, rs*rs-d1*d1/4))

	out := make([]geom.Vec, 0, n)
	place := func(p geom.Vec) bool {
		if len(out) >= n {
			return false
		}
		out = append(out, p.Clamp(bounds))
		return len(out) < n
	}

	needConnectors := d2 > rc
	prevRowY := math.NaN()
	row := 0
	// The final row may overshoot the top edge; Clamp pulls it onto the
	// boundary, closing the top sliver.
	for y := bounds.Min.Y + rs; y <= bounds.Max.Y+d2/2; y += d2 {
		// Connector chain between this row and the previous one along the
		// left edge, spaced rc apart.
		if needConnectors && !math.IsNaN(prevRowY) {
			// 0.86·rc ≤ √(rc²−(d1/2)²) for every d1 ≤ rc, so each link in
			// the chain reaches the nearest sensor of either adjacent row
			// despite the stagger offset.
			cStep := 0.86 * rc
			for cy := prevRowY + cStep; cy < math.Min(y, bounds.Max.Y); cy += cStep {
				if !place(geom.V(bounds.Min.X+d1/2, cy)) {
					return out
				}
			}
		}
		// Alternate rows are staggered by half the intra-row spacing,
		// which is what closes the inter-row gaps in Bai et al.'s pattern.
		offset := d1 / 2
		if row%2 == 1 {
			offset = 0
		}
		for x := bounds.Min.X + offset; x <= bounds.Max.X; x += d1 {
			if !place(geom.V(x, y)) {
				return out
			}
		}
		prevRowY = y
		row++
	}
	return out
}
