// Package geom provides the 2-D computational-geometry substrate used by the
// deployment simulator: vectors, segments, circles, simple polygons and the
// predicates (intersection, containment, closest point) the motion planner
// and the Voronoi baselines rely on.
//
// All coordinates are in meters. The package is allocation-conscious: the
// value types (Vec, Segment, Circle) are plain structs and the polygon
// routines avoid per-call allocation on the hot paths used by the simulator.
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used by geometric predicates. Coordinates in the
// simulator are on the order of 1e3 meters, so 1e-9 leaves ~6 digits of
// headroom above float64 noise.
const Eps = 1e-9

// Vec is a 2-D point or displacement vector.
type Vec struct {
	X, Y float64
}

// V is shorthand for constructing a Vec.
func V(x, y float64) Vec { return Vec{X: x, Y: y} }

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by k.
func (v Vec) Scale(k float64) Vec { return Vec{v.X * k, v.Y * k} }

// Dot returns the dot product v · w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the z-component of the 3-D cross product v × w. It is
// positive when w is counter-clockwise from v.
func (v Vec) Cross(w Vec) float64 { return v.X*w.Y - v.Y*w.X }

// Len returns the Euclidean norm of v.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// Len2 returns the squared Euclidean norm of v, avoiding a sqrt.
func (v Vec) Len2() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and w.
func (v Vec) Dist(w Vec) float64 { return v.Sub(w).Len() }

// Dist2 returns the squared Euclidean distance between v and w.
func (v Vec) Dist2(w Vec) float64 { return v.Sub(w).Len2() }

// WithinDist reports v.Dist(w) <= r, bit-identically, while avoiding the
// square root in almost every call. Squared comparison alone is not an
// exact substitute — Dist rounds through Hypot, and d² vs r² can order
// differently within half an ulp — so values inside a narrow guard band
// around r² fall back to the original Dist comparison. The band is ~1e-9
// relative, orders of magnitude wider than the ~1e-16 rounding of either
// side, and is hit only when d/r agree to nine digits.
func (v Vec) WithinDist(w Vec, r float64) bool {
	if r < 0 {
		return false
	}
	d2 := v.Dist2(w)
	r2 := r * r
	if d2 <= r2*(1-1e-9) {
		return true
	}
	if d2 > r2*(1+1e-9) {
		return false
	}
	return v.Dist(w) <= r
}

// CloserThan reports v.Dist(w) < r, bit-identically, with WithinDist's
// guard band: the square root is taken only when d² is within ~1e-9
// relative of r².
func (v Vec) CloserThan(w Vec, r float64) bool {
	if r <= 0 {
		return false
	}
	d2 := v.Dist2(w)
	r2 := r * r
	if d2 < r2*(1-1e-9) {
		return true
	}
	if d2 > r2*(1+1e-9) {
		return false
	}
	return v.Dist(w) < r
}

// Unit returns v normalized to length 1. The zero vector is returned
// unchanged so callers never divide by zero.
func (v Vec) Unit() Vec {
	l := v.Len()
	if l < Eps {
		return Vec{}
	}
	return Vec{v.X / l, v.Y / l}
}

// Perp returns v rotated 90 degrees counter-clockwise.
func (v Vec) Perp() Vec { return Vec{-v.Y, v.X} }

// Neg returns -v.
func (v Vec) Neg() Vec { return Vec{-v.X, -v.Y} }

// Angle returns the polar angle of v in radians, in (-pi, pi].
func (v Vec) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Rotate returns v rotated by theta radians counter-clockwise.
func (v Vec) Rotate(theta float64) Vec {
	s, c := math.Sincos(theta)
	return Vec{v.X*c - v.Y*s, v.X*s + v.Y*c}
}

// Lerp returns the linear interpolation between v and w at parameter t,
// with t=0 yielding v and t=1 yielding w.
func (v Vec) Lerp(w Vec, t float64) Vec {
	return Vec{v.X + (w.X-v.X)*t, v.Y + (w.Y-v.Y)*t}
}

// Towards returns the point at distance d from v in the direction of w.
// If v and w coincide, v is returned.
func (v Vec) Towards(w Vec, d float64) Vec {
	return v.Add(w.Sub(v).Unit().Scale(d))
}

// Eq reports whether v and w coincide within Eps.
func (v Vec) Eq(w Vec) bool {
	return math.Abs(v.X-w.X) <= Eps && math.Abs(v.Y-w.Y) <= Eps
}

// IsFinite reports whether both coordinates are finite numbers.
func (v Vec) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0)
}

// String implements fmt.Stringer.
func (v Vec) String() string { return fmt.Sprintf("(%.3f, %.3f)", v.X, v.Y) }

// Clamp returns v with each coordinate clamped to [lo, hi] of r.
func (v Vec) Clamp(r Rect) Vec {
	return Vec{
		X: math.Min(math.Max(v.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(v.Y, r.Min.Y), r.Max.Y),
	}
}
