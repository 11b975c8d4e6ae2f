package bug2

import (
	"testing"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// TestConcaveTrapEscape drives the planner into a C-shaped pocket opening
// away from the target; BUG2 must wall-follow out of the pocket and around
// the obstacle.
func TestConcaveTrapEscape(t *testing.T) {
	// C-shape opening west, target to the east behind it.
	c := geom.Polygon{
		geom.V(100, 40), geom.V(160, 40), geom.V(160, 160), geom.V(100, 160),
		geom.V(100, 140), geom.V(140, 140), geom.V(140, 60), geom.V(100, 60),
	}
	f := field.MustNew(geom.R(0, 0, 300, 200), []geom.Polygon{c})
	// Start inside the pocket.
	p := plan(f, geom.V(120, 100), geom.V(280, 100), RightHand, 0.5, false)
	path := run(t, p, 2, 3000)
	if p.Status() != StatusArrived {
		t.Fatalf("status = %v at %v", p.Status(), p.Pos())
	}
	for _, pt := range path {
		if !f.Free(pt) {
			t.Fatalf("path point %v not free", pt)
		}
	}
}

// TestDeadEndCorridor: a corridor with a closed end; the target is outside
// the corridor so the planner must back out around the walls.
func TestDeadEndCorridor(t *testing.T) {
	walls := []geom.Polygon{
		geom.R(80, 140, 220, 150).Polygon(), // north wall
		geom.R(80, 50, 220, 60).Polygon(),   // south wall
		geom.R(210, 60, 220, 140).Polygon(), // closed east end; open to the west
	}
	f := field.MustNew(geom.R(0, 0, 300, 200), walls,
		field.WithValidationResolution(2))
	// Start inside the corridor, target north of it.
	p := plan(f, geom.V(150, 100), geom.V(150, 180), RightHand, 0.5, false)
	for p.Status() == StatusMoving && p.Traveled() < 5000 {
		p.Advance(2)
		if !f.Free(p.Pos()) {
			t.Fatalf("position %v not free", p.Pos())
		}
	}
	if p.Status() != StatusArrived {
		t.Fatalf("status = %v at %v", p.Status(), p.Pos())
	}
}
