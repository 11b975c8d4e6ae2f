// Package bug2 implements the Lumelsky–Stepanov BUG2 path-planning
// algorithm (§3.2 of the paper): move along the straight reference line from
// start to target; on hitting an obstacle, follow its boundary using the
// right-hand (or left-hand) rule until returning to the reference line at a
// point strictly closer to the target from which progress is possible, then
// resume the straight walk.
//
// The planner is incremental: Advance(budget) consumes up to budget meters
// of travel and returns, so a sensor can interleave planning with the
// per-period decisions of the deployment schemes. Overlapping obstacles are
// handled by switching to whichever solid the wall-following path collides
// with, which traces the boundary of the union.
package bug2

import (
	"math"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// Status describes the planner's progress.
type Status int

// Planner states.
const (
	// StatusMoving means the planner has not yet reached the target.
	StatusMoving Status = iota + 1
	// StatusArrived means the position is within the arrival tolerance of
	// the target.
	StatusArrived
	// StatusHit is reported in stop-on-hit mode when the straight walk
	// first touches an obstacle (used by FLOOR's Algorithm 1 legs).
	StatusHit
	// StatusStuck means the target is unreachable: boundary following
	// returned to the hit point (or exceeded the union perimeter) without
	// finding a valid leave point.
	StatusStuck
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusMoving:
		return "moving"
	case StatusArrived:
		return "arrived"
	case StatusHit:
		return "hit"
	case StatusStuck:
		return "stuck"
	default:
		return "unknown"
	}
}

// Hand selects which hand stays on the wall while following a boundary.
type Hand int

// Wall-following hand rules.
const (
	// RightHand keeps the obstacle on the robot's right (clockwise
	// traversal of a CCW polygon); the paper's connectivity phase uses it.
	RightHand Hand = iota + 1
	// LeftHand keeps the obstacle on the left (counter-clockwise
	// traversal); §5.5.1 uses it to disperse into unexplored areas.
	LeftHand
)

// clearance is the standoff distance (meters) the planner keeps from walls
// to avoid degenerate tangential collision queries. It is two orders of
// magnitude below the smallest communication range in the paper, so it has
// no effect on scheme-level behaviour.
const clearance = 0.1

// defaultArriveTol is the default arrival tolerance.
const defaultArriveTol = 0.25

type mode int

const (
	modeStraight mode = iota + 1
	modeFollow
)

// Planner executes BUG2 incrementally between a start and a target.
type Planner struct {
	f      *field.Field
	start  geom.Vec
	target geom.Vec
	pos    geom.Vec
	status Status

	hand      Hand
	arriveTol float64
	stopOnHit bool

	mode mode
	// Boundary-following episode state.
	hitPoint     geom.Vec // H: where the straight walk hit the obstacle
	hitDist      float64  // |H - target|
	solid        int      // solid currently being followed
	edge         int      // edge index on that solid
	followTravel float64  // distance traveled in this following episode
	leftVicinity bool     // the walk has moved well away from the hit point
	maxFollow    float64  // following budget before declaring the target unreachable

	traveled float64
}

// Init (re)initializes p in place for a fresh start→target walk with the
// given configuration, letting callers that plan many consecutive legs
// (e.g. multi-leg route walkers) reuse one planner value instead of
// allocating one per leg. hand picks the wall-following rule; arriveTol is
// the distance at which the target counts as reached (zero selects the
// default, 0.25 m); stopOnHit halts the walk with StatusHit where it first
// touches an obstacle instead of following the wall, which realizes the
// "until ... hitting an obstacle" clauses of FLOOR's Algorithm 1.
func (p *Planner) Init(f *field.Field, start, target geom.Vec, hand Hand, arriveTol float64, stopOnHit bool) {
	if arriveTol <= 0 {
		arriveTol = defaultArriveTol
	}
	*p = Planner{
		f:         f,
		start:     start,
		target:    target,
		pos:       start,
		status:    StatusMoving,
		hand:      hand,
		arriveTol: arriveTol,
		stopOnHit: stopOnHit,
		mode:      modeStraight,
		maxFollow: followBudget(f),
	}
	if p.pos.WithinDist(p.target, p.arriveTol) {
		p.status = StatusArrived
	}
}

// followBudget returns the maximum boundary-following distance before the
// planner declares the target unreachable: twice the total perimeter of all
// solids, which upper-bounds any union boundary walk.
func followBudget(f *field.Field) float64 {
	var sum float64
	for i := 0; i < f.NumSolids(); i++ {
		sum += f.Solid(i).Perimeter()
	}
	return 2*sum + 100
}

// Pos returns the planner's current position.
func (p *Planner) Pos() geom.Vec { return p.pos }

// Target returns the target point.
func (p *Planner) Target() geom.Vec { return p.target }

// Status returns the planner's current status.
func (p *Planner) Status() Status { return p.status }

// Traveled returns the total distance traveled so far.
func (p *Planner) Traveled() float64 { return p.traveled }

// refLine returns the BUG2 reference line segment.
func (p *Planner) refLine() geom.Segment { return geom.Seg(p.start, p.target) }

// Advance moves the planner up to budget meters along the BUG2 path and
// returns the distance actually moved. Movement stops early on arrival,
// on obstacle contact in stop-on-hit mode, or when the target is found
// unreachable.
func (p *Planner) Advance(budget float64) float64 {
	const minProgress = 1e-7
	var moved float64
	for iter := 0; iter < 100000; iter++ {
		if p.status != StatusMoving || budget <= minProgress {
			break
		}
		var step float64
		if p.mode == modeStraight {
			step = p.stepStraight(budget)
		} else {
			step = p.stepFollow(budget)
		}
		moved += step
		budget -= math.Max(step, minProgress)
	}
	p.traveled += moved
	return moved
}

// stepStraight advances along the line toward the target, entering
// following mode on collision. It returns the distance moved.
func (p *Planner) stepStraight(budget float64) float64 {
	toTarget := p.target.Sub(p.pos)
	dist := toTarget.Len()
	if dist <= p.arriveTol {
		p.status = StatusArrived
		return 0
	}
	stepLen := math.Min(budget, dist)
	dest := p.pos.Add(toTarget.Unit().Scale(stepLen))

	hit, ok := p.f.FirstHit(geom.Seg(p.pos, dest))
	if !ok {
		p.pos = dest
		if p.pos.WithinDist(p.target, p.arriveTol) {
			p.status = StatusArrived
		}
		return stepLen
	}

	// A hit within arrival tolerance of the target (e.g. a target on a
	// wall or at a field corner) counts as arrival.
	hitMoved := hit.T * stepLen
	if hit.Point.WithinDist(p.target, p.arriveTol+clearance) {
		p.pos = p.standOff(hit.Solid, hit.Edge, hit.Point)
		p.status = StatusArrived
		return hitMoved
	}

	// Collision: stand off the wall and begin (or report) the hit.
	p.enterFollow(hit)
	if p.stopOnHit {
		p.status = StatusHit
	}
	return hitMoved
}

// enterFollow transitions into boundary following at the given hit.
func (p *Planner) enterFollow(hit field.Hit) {
	p.mode = modeFollow
	p.hitPoint = hit.Point
	p.hitDist = hit.Point.Dist(p.target)
	p.solid = hit.Solid
	p.edge = hit.Edge
	p.followTravel = 0
	p.leftVicinity = false
	p.pos = p.standOff(hit.Solid, hit.Edge, hit.Point)
}

// standOff returns pt pushed clearance meters away from the solid along the
// edge's outward normal.
func (p *Planner) standOff(solid, edge int, pt geom.Vec) geom.Vec {
	e := p.f.Solid(solid).Edge(edge)
	outward := e.Dir().Perp().Neg() // CCW polygon: interior is left, so outward is right
	return pt.Add(outward.Scale(clearance))
}

// followDir returns +1 to traverse edges in CCW order (left hand on wall)
// or -1 for CW order (right hand on wall).
func (p *Planner) followDir() int {
	if p.hand == LeftHand {
		return 1
	}
	return -1
}

// stepFollow advances along the current solid's boundary, switching solids
// on collision (union boundaries), turning at corners, and testing the BUG2
// leave condition. It returns the distance moved.
func (p *Planner) stepFollow(budget float64) float64 {
	if p.followTravel > p.maxFollow {
		p.status = StatusStuck
		return 0
	}
	poly := p.f.Solid(p.solid)
	e := poly.Edge(p.edge)
	dir := p.followDir()

	param := e.ClosestParam(p.pos)
	var walk geom.Vec // unit walk direction along the edge
	var remaining float64
	if dir > 0 {
		walk = e.Dir()
		remaining = (1 - param) * e.Len()
	} else {
		walk = e.Dir().Neg()
		remaining = param * e.Len()
	}

	if remaining <= 1e-9 {
		return p.turnCorner(poly, budget)
	}

	stepLen := math.Min(budget, remaining)
	next := p.pos.Add(walk.Scale(stepLen))

	// Find the first collision along the sub-step (including this
	// polygon's other edges at concave corners, and other obstacles of an
	// overlapping union). Grazing contact with the edge being followed is
	// not a collision.
	tHit := math.Inf(1)
	var hit field.Hit
	if h, ok := p.f.FirstHit(geom.Seg(p.pos, next)); ok {
		if !(h.Solid == p.solid && h.Edge == p.edge) || h.T*stepLen > clearance {
			tHit = h.T
			hit = h
		}
	}

	// Leave condition: does this sub-step cross the reference line —
	// before any collision — at a point strictly closer to the target than
	// the hit point, from which progress toward the target is possible?
	if leavePt, ok := p.crossesReferenceLine(p.pos, next); ok {
		tCross := p.pos.Dist(leavePt) / stepLen
		if tCross < tHit &&
			leavePt.Dist(p.target) < p.hitDist-1e-9 && p.canProgress(leavePt) {
			movedToLeave := p.pos.Dist(leavePt)
			p.pos = leavePt
			p.followTravel += movedToLeave
			p.mode = modeStraight
			if p.pos.WithinDist(p.target, p.arriveTol) {
				p.status = StatusArrived
			}
			return movedToLeave
		}
	}

	if !math.IsInf(tHit, 1) {
		moved := tHit * stepLen
		p.solid = hit.Solid
		p.edge = hit.Edge
		p.pos = p.standOff(hit.Solid, hit.Edge, hit.Point)
		p.followTravel += moved
		return math.Max(moved, 1e-6)
	}

	swept := geom.Seg(p.pos, next)
	p.pos = next
	p.followTravel += stepLen
	if p.pos.WithinDist(p.target, p.arriveTol) {
		p.status = StatusArrived
	}
	// Unreachable-target detection: once the walk has moved well away from
	// the hit point, sweeping past it again means a full boundary lap
	// happened without a valid leave point (BUG2's unreachability
	// criterion).
	if !p.leftVicinity {
		p.leftVicinity = p.pos.Dist(p.hitPoint) > 10*clearance
	} else if swept.Dist(p.hitPoint) < 2*clearance {
		p.status = StatusStuck
	}
	return stepLen
}

// turnCorner pivots around the vertex at the end of the current edge onto
// the next edge in traversal order. The pivot arc around the corner is
// charged as the Euclidean jump between the two stand-off positions,
// clamped to the remaining budget so Advance never over-reports travel.
func (p *Planner) turnCorner(poly geom.Polygon, budget float64) float64 {
	n := poly.NumEdges()
	dir := p.followDir()
	if dir > 0 {
		p.edge = (p.edge + 1) % n
	} else {
		p.edge = (p.edge - 1 + n) % n
	}
	var anchor geom.Vec
	if dir > 0 {
		anchor = poly.Edge(p.edge).A
	} else {
		anchor = poly.Edge(p.edge).B
	}
	newPos := p.standOff(p.solid, p.edge, anchor)
	moved := p.pos.Dist(newPos)
	p.pos = newPos
	p.followTravel += moved
	// The pivot is atomic; charge at most the remaining budget (the jump
	// is bounded by the 2·clearance stand-off geometry, so the
	// under-report is negligible).
	return math.Max(math.Min(moved, budget), 1e-6)
}

// crossesReferenceLine reports whether the segment a→b crosses the BUG2
// reference line, returning the crossing point.
func (p *Planner) crossesReferenceLine(a, b geom.Vec) (geom.Vec, bool) {
	ref := p.refLine()
	sa, sb := ref.Side(a), ref.Side(b)
	if sa == sb || (sa == 0 && sb == 0) {
		return geom.Vec{}, false
	}
	pt, ok := geom.Seg(a, b).Intersect(geom.Seg(ref.A, ref.B))
	if !ok {
		// The sub-step crosses the infinite line outside the segment
		// extent; that is not a reference-line return.
		return geom.Vec{}, false
	}
	return pt, true
}

// canProgress reports whether a short probe from q toward the target stays
// in free space, i.e. the robot "can make progress on the reference line".
func (p *Planner) canProgress(q geom.Vec) bool {
	d := q.Dist(p.target)
	if d <= p.arriveTol {
		return true
	}
	probe := q.Towards(p.target, math.Min(1.0, d))
	return p.f.SegmentFree(q, probe)
}

// Resume re-enables a planner halted by StatusHit in stop-on-hit mode,
// switching it to full wall-following from its current position. Calling
// Resume in any other state is a no-op.
func (p *Planner) Resume() {
	if p.status == StatusHit {
		p.status = StatusMoving
		p.stopOnHit = false
	}
}
