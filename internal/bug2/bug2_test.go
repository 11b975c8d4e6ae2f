package bug2

import (
	"math"
	"math/rand/v2"
	"testing"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// plan sets a planner up the way every scheme does, with Planner.Init; a
// zero tol selects the default arrival tolerance.
func plan(f *field.Field, start, target geom.Vec, hand Hand, tol float64, stopOnHit bool) *Planner {
	p := new(Planner)
	p.Init(f, start, target, hand, tol, stopOnHit)
	return p
}

// run drives a planner to completion and returns the trajectory sampled at
// every advance call.
func run(t *testing.T, p *Planner, stepBudget, maxTravel float64) []geom.Vec {
	t.Helper()
	path := []geom.Vec{p.Pos()}
	for p.Status() == StatusMoving {
		p.Advance(stepBudget)
		path = append(path, p.Pos())
		if p.Traveled() > maxTravel {
			t.Fatalf("planner exceeded travel bound %v (at %v, status %v)",
				maxTravel, p.Pos(), p.Status())
		}
	}
	return path
}

func TestStraightLineNoObstacles(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	p := plan(f, geom.V(10, 10), geom.V(80, 60), RightHand, 0, false)
	run(t, p, 2, 200)
	if p.Status() != StatusArrived {
		t.Fatalf("status = %v", p.Status())
	}
	want := geom.V(10, 10).Dist(geom.V(80, 60))
	if math.Abs(p.Traveled()-want) > 0.5 {
		t.Errorf("traveled %v, want ~%v", p.Traveled(), want)
	}
}

func TestAroundSingleObstacle(t *testing.T) {
	// Square obstacle directly between start and target.
	f := field.MustNew(geom.R(0, 0, 200, 100), []geom.Polygon{geom.R(80, 30, 120, 70).Polygon()})
	for _, hand := range []Hand{RightHand, LeftHand} {
		p := plan(f, geom.V(10, 50), geom.V(190, 50), hand, 0, false)
		path := run(t, p, 2, 1000)
		if p.Status() != StatusArrived {
			t.Fatalf("hand %v: status = %v at %v", hand, p.Status(), p.Pos())
		}
		// Path must detour: longer than straight-line distance.
		straight := 180.0
		if p.Traveled() < straight {
			t.Errorf("hand %v: traveled %v < straight %v", hand, p.Traveled(), straight)
		}
		// BUG2 bound: D + n*l/2 with one crossing pair of a 160-perimeter
		// obstacle, plus slack for stand-off pivots.
		if p.Traveled() > straight+160+10 {
			t.Errorf("hand %v: traveled %v exceeds BUG2 bound", hand, p.Traveled())
		}
		for _, pt := range path {
			if !f.Free(pt) {
				t.Fatalf("hand %v: path point %v inside obstacle", hand, pt)
			}
		}
	}
}

func TestHandsDivergeAroundObstacle(t *testing.T) {
	// Heading east into the obstacle's west wall: keeping the right hand
	// on the wall means turning left (north), so the right-hand planner
	// rounds the obstacle over the top (y > 70); the left-hand planner
	// goes under it (y < 30).
	f := field.MustNew(geom.R(0, 0, 200, 100), []geom.Polygon{geom.R(80, 30, 120, 70).Polygon()})
	right := plan(f, geom.V(10, 50), geom.V(190, 50), RightHand, 0, false)
	left := plan(f, geom.V(10, 50), geom.V(190, 50), LeftHand, 0, false)
	var rightAbove, rightBelow, leftAbove, leftBelow bool
	for right.Status() == StatusMoving && right.Traveled() < 1000 {
		right.Advance(2)
		rightAbove = rightAbove || right.Pos().Y > 70
		rightBelow = rightBelow || right.Pos().Y < 30
	}
	for left.Status() == StatusMoving && left.Traveled() < 1000 {
		left.Advance(2)
		leftAbove = leftAbove || left.Pos().Y > 70
		leftBelow = leftBelow || left.Pos().Y < 30
	}
	if !rightAbove || rightBelow {
		t.Errorf("right-hand planner: above=%v below=%v, want above only", rightAbove, rightBelow)
	}
	if !leftBelow || leftAbove {
		t.Errorf("left-hand planner: above=%v below=%v, want below only", leftAbove, leftBelow)
	}
}

func TestFigure2TwoObstacles(t *testing.T) {
	// The paper's Figure 2: a walk to R encounters two obstacles on the
	// reference line and rounds each with the right-hand rule.
	f := field.MustNew(geom.R(0, 0, 300, 100), []geom.Polygon{
		geom.R(60, 20, 100, 80).Polygon(),
		geom.R(160, 10, 220, 60).Polygon(),
	})
	p := plan(f, geom.V(10, 50), geom.V(280, 40), RightHand, 0, false)
	path := run(t, p, 2, 2000)
	if p.Status() != StatusArrived {
		t.Fatalf("status = %v at %v", p.Status(), p.Pos())
	}
	for _, pt := range path {
		if !f.Free(pt) {
			t.Fatalf("path point %v not free", pt)
		}
	}
}

func TestOverlappingObstaclesUnionBoundary(t *testing.T) {
	// Two overlapping rectangles form an L-shaped union; the planner must
	// switch solids mid-follow.
	f := field.MustNew(geom.R(0, 0, 200, 200), []geom.Polygon{
		geom.R(60, 40, 100, 160).Polygon(),
		geom.R(80, 80, 160, 120).Polygon(),
	})
	p := plan(f, geom.V(20, 100), geom.V(190, 100), RightHand, 0, false)
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

func TestUnreachableTargetInsideObstacle(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), []geom.Polygon{geom.R(40, 40, 60, 60).Polygon()})
	p := plan(f, geom.V(10, 50), geom.V(50, 50), RightHand, 0, false) // target at obstacle center
	for p.Status() == StatusMoving && p.Traveled() < 5000 {
		p.Advance(2)
	}
	if p.Status() != StatusStuck {
		t.Fatalf("status = %v, want stuck (traveled %v)", p.Status(), p.Traveled())
	}
}

func TestTargetOutsideFieldIsStuck(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	p := plan(f, geom.V(50, 50), geom.V(150, 50), RightHand, 0, false)
	for p.Status() == StatusMoving && p.Traveled() < 30000 {
		p.Advance(5)
	}
	if p.Status() != StatusStuck {
		t.Fatalf("status = %v, want stuck", p.Status())
	}
}

func TestStopOnHit(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 200, 100), []geom.Polygon{geom.R(80, 30, 120, 70).Polygon()})
	p := plan(f, geom.V(10, 50), geom.V(190, 50), RightHand, 0, true)
	for p.Status() == StatusMoving {
		p.Advance(2)
	}
	if p.Status() != StatusHit {
		t.Fatalf("status = %v, want hit", p.Status())
	}
	if p.Pos().X > 81 {
		t.Errorf("stopped at %v, expected just before x=80", p.Pos())
	}
	// Resume converts the planner to full BUG2.
	p.Resume()
	run(t, p, 2, 1000)
	if p.Status() != StatusArrived {
		t.Fatalf("after resume: status = %v", p.Status())
	}
}

func TestResumeIsNoOpWhenMoving(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	p := plan(f, geom.V(10, 10), geom.V(90, 90), RightHand, 0, false)
	p.Resume()
	if p.Status() != StatusMoving {
		t.Errorf("status = %v", p.Status())
	}
}

func TestAlreadyAtTarget(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	p := plan(f, geom.V(50, 50), geom.V(50, 50.1), RightHand, 0, false)
	if p.Status() != StatusArrived {
		t.Errorf("status = %v, want arrived immediately", p.Status())
	}
	if moved := p.Advance(5); moved != 0 {
		t.Errorf("arrived planner moved %v", moved)
	}
}

func TestAdvanceBudgetRespected(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 1000, 1000), nil)
	p := plan(f, geom.V(100, 100), geom.V(900, 900), RightHand, 0, false)
	moved := p.Advance(2)
	if math.Abs(moved-2) > 1e-9 {
		t.Errorf("moved %v, want 2", moved)
	}
	if math.Abs(p.Traveled()-2) > 1e-9 {
		t.Errorf("traveled %v", p.Traveled())
	}
}

func TestWallTargetReachableWithinTolerance(t *testing.T) {
	// FLOOR leg 2/3 targets lie on the field boundary (x=0). The planner
	// should arrive within tolerance despite the wall stand-off.
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	p := plan(f, geom.V(50, 40), geom.V(0, 40), RightHand, 0.5, false)
	run(t, p, 2, 500)
	if p.Status() != StatusArrived {
		t.Fatalf("status = %v at %v", p.Status(), p.Pos())
	}
	if p.Pos().Dist(geom.V(0, 40)) > 0.5 {
		t.Errorf("arrived at %v, too far from wall target", p.Pos())
	}
}

func TestCornerTargetReachable(t *testing.T) {
	// The base station sits at the field corner (0,0); both frames meet
	// there.
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	p := plan(f, geom.V(80, 30), geom.V(0, 0), RightHand, 0.5, false)
	run(t, p, 2, 500)
	if p.Status() != StatusArrived {
		t.Fatalf("status = %v at %v", p.Status(), p.Pos())
	}
}

// Property: on random connected fields with free start/target, BUG2 arrives
// and never leaves free space.
func TestRandomFieldsAlwaysArrive(t *testing.T) {
	rng := rand.New(rand.NewPCG(2024, 6))
	for trial := 0; trial < 25; trial++ {
		f, err := field.RandomObstacles(rng, field.DefaultRandomObstacleConfig())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		start := f.RandomFreePoint(rng, f.Bounds())
		target := f.RandomFreePoint(rng, f.Bounds())
		// Keep both a little away from walls so the trial is fair.
		if len(f.BoundariesWithin(start, 1)) > 0 || len(f.BoundariesWithin(target, 1)) > 0 {
			continue
		}
		p := plan(f, start, target, RightHand, 0.5, false)
		for p.Status() == StatusMoving && p.Traveled() < 50000 {
			p.Advance(10)
			if pos := p.Pos(); !f.Free(pos) {
				t.Fatalf("trial %d: position %v not free (start %v target %v)",
					trial, pos, start, target)
			}
		}
		if p.Status() != StatusArrived {
			t.Fatalf("trial %d: status %v after %.0f m (start %v target %v pos %v)",
				trial, p.Status(), p.Traveled(), start, target, p.Pos())
		}
	}
}

// Property: path length never exceeds the BUG2 bound D + sum(perimeters),
// loosely.
func TestPathLengthBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 4))
	for trial := 0; trial < 15; trial++ {
		f, err := field.RandomObstacles(rng, field.DefaultRandomObstacleConfig())
		if err != nil {
			t.Fatal(err)
		}
		var perims float64
		for i := 0; i < f.NumSolids(); i++ {
			perims += f.Solid(i).Perimeter()
		}
		start := f.RandomFreePoint(rng, f.Bounds())
		target := f.RandomFreePoint(rng, f.Bounds())
		if len(f.BoundariesWithin(start, 1)) > 0 || len(f.BoundariesWithin(target, 1)) > 0 {
			continue
		}
		p := plan(f, start, target, RightHand, 0.5, false)
		bound := start.Dist(target) + 2*perims
		for p.Status() == StatusMoving && p.Traveled() <= bound {
			p.Advance(10)
		}
		if p.Status() == StatusMoving {
			t.Fatalf("trial %d: exceeded bound %v", trial, bound)
		}
	}
}

func TestStatusString(t *testing.T) {
	tests := []struct {
		s    Status
		want string
	}{
		{StatusMoving, "moving"},
		{StatusArrived, "arrived"},
		{StatusHit, "hit"},
		{StatusStuck, "stuck"},
		{Status(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.s, got, tt.want)
		}
	}
}
