package core

import (
	"math"

	"mobisense/internal/geom"
)

// LazyOutcome describes what a disconnected sensor did in one period under
// the lazy-movement strategy (§3.3).
type LazyOutcome int

// Lazy movement outcomes.
const (
	// LazyMoved: the sensor advanced along its route.
	LazyMoved LazyOutcome = iota + 1
	// LazyWaiting: the sensor paused, hoping its path parent connects
	// first.
	LazyWaiting
	// LazyJoined: the sensor entered the connect radius of a connected
	// sensor (Parent holds its ID).
	LazyJoined
	// LazyJoinedBase: the sensor entered the connect radius of the base
	// station.
	LazyJoinedBase
	// LazyStuck: the walker cannot complete its route.
	LazyStuck
)

// LazyResult is the outcome of one lazy-movement period.
type LazyResult struct {
	Outcome LazyOutcome
	// Parent is the connected sensor joined when Outcome is LazyJoined.
	Parent int
}

// LazyConfig tunes the lazy-movement strategy.
type LazyConfig struct {
	// ConnectRadius is the distance at which a sensor attaches to a
	// connected node: rc for CPVF, min(rc, 2*rs) for FLOOR (§5.2). Zero,
	// or anything beyond rc (no link reaches that far), selects rc.
	ConnectRadius float64
	// LoopCheckAfter is how many consecutive waiting periods pass before
	// the sensor starts sending PathParentInquiry loop probes.
	LoopCheckAfter int
	// Disabled turns lazy movement off entirely: every disconnected
	// sensor walks every period (the §3.3 ablation).
	Disabled bool
}

// LazyCoordinator drives the lazy movement of all disconnected sensors:
// pause when a neighbor is ahead on the route, probe for mutual-wait loops
// with PathParentInquiry messages, and resume walking when a loop is found
// (§3.3).
type LazyCoordinator struct {
	w   *World
	cfg LazyConfig

	walkers    []Walker
	pathParent []int
	stalled    []int
	rejected   []map[int]bool

	// fallbacks counts the argmins decided by the grid-order scan.
	fallbacks int
}

// NewLazyCoordinator creates a coordinator for the given per-sensor
// walkers. walkers[i] must start at sensor i's initial position.
func NewLazyCoordinator(w *World, walkers []Walker, cfg LazyConfig) *LazyCoordinator {
	if cfg.LoopCheckAfter <= 0 {
		cfg.LoopCheckAfter = 3
	}
	if cfg.ConnectRadius <= 0 || cfg.ConnectRadius > w.P.Rc {
		cfg.ConnectRadius = w.P.Rc
	}
	lc := &LazyCoordinator{
		w:          w,
		cfg:        cfg,
		walkers:    walkers,
		pathParent: make([]int, len(walkers)),
		stalled:    make([]int, len(walkers)),
		rejected:   make([]map[int]bool, len(walkers)),
	}
	for i := range lc.pathParent {
		lc.pathParent[i] = NoParent
	}
	return lc
}

// Step performs one period of lazy movement for disconnected sensor id and
// commits the resulting motion (or a stationary period) to the world. The
// caller flags the sensor Connected and updates the tree on LazyJoined /
// LazyJoinedBase.
func (lc *LazyCoordinator) Step(id int) LazyResult {
	w := lc.w
	T := w.P.Period

	// One local broadcast per period to learn neighbor states (§3.1:
	// location is known only through communication).
	w.Msg.Count(MsgBeacon, 1)

	// Already in range of the base station?
	if w.NearBase(id, lc.cfg.ConnectRadius) {
		w.Stay(id, T)
		return LazyResult{Outcome: LazyJoinedBase}
	}

	// In range of a connected sensor? Join the nearest whose committed
	// motion keeps it in range: the new parent only learns about us at its
	// next decision, so the link must survive the remainder of its current
	// step (Appendix A's conditions, applied to the join). Otherwise pick
	// a path parent: the nearest neighbor strictly closer to the current
	// destination (§3.3). The communication radius (not the connect
	// radius) governs who can be seen.
	//
	// One pass over the kept rc answer (World.Neighbors), in ID order,
	// feeds both argmins: join candidates are connected, path-parent
	// candidates are not, and the connect radius is at most rc. "Nearest"
	// is the first candidate of smallest Dist in the grid order of
	// NeighborsWithin, so the pass only decides when its winner is
	// nearest by a margin no rounding can close; otherwise the grid-order
	// scan decides (see argmin).
	pos := w.Pos(id)
	now := w.Now()
	walker := lc.walkers[id]
	target := walker.Target()
	ahead := pos.Dist(target) - 1e-9
	join, parent := newArgmin(), newArgmin()
	for _, j := range w.Neighbors(id, w.P.Rc) {
		p := w.PosAt(j, now)
		switch {
		case lc.canJoin(j, p, pos, now):
			join.add(j, p.Dist2(pos))
		case lc.leads(id, j, p, target, ahead):
			parent.add(j, p.Dist2(pos))
		}
	}
	joined := join.id
	if !join.clear() {
		joined = lc.gridNearest(id, true, pos, target, ahead, now)
	}
	if joined != NoParent {
		w.Stay(id, T)
		return LazyResult{Outcome: LazyJoined, Parent: joined}
	}

	if walker.Stuck() {
		w.Stay(id, T)
		return LazyResult{Outcome: LazyStuck}
	}

	if lc.cfg.Disabled {
		moved := walker.Advance(w.P.MaxStep())
		w.BeginStep(id, walker.Pos(), moved, T)
		if walker.Stuck() {
			return LazyResult{Outcome: LazyStuck}
		}
		return LazyResult{Outcome: LazyMoved}
	}

	cand := parent.id
	if !parent.clear() {
		cand = lc.gridNearest(id, false, pos, target, ahead, now)
	}

	// A neighbor already waiting on us cannot be our path parent.
	if cand != NoParent && lc.pathParent[cand] == id {
		cand = NoParent
	}

	if cand != NoParent {
		lc.pathParent[id] = cand
		lc.stalled[id]++
		if lc.stalled[id] >= lc.cfg.LoopCheckAfter && lc.loopDetected(id) {
			// Disregard this path parent for good and resume walking at
			// the next step (§3.3).
			if lc.rejected[id] == nil {
				lc.rejected[id] = make(map[int]bool)
			}
			lc.rejected[id][cand] = true
			lc.pathParent[id] = NoParent
			lc.stalled[id] = 0
		}
		w.Stay(id, T)
		return LazyResult{Outcome: LazyWaiting}
	}

	// No path parent: walk.
	lc.pathParent[id] = NoParent
	lc.stalled[id] = 0
	moved := walker.Advance(w.P.MaxStep())
	w.BeginStep(id, walker.Pos(), moved, T)
	if walker.Stuck() {
		return LazyResult{Outcome: LazyStuck}
	}
	return LazyResult{Outcome: LazyMoved}
}

// canJoin reports whether a sensor at pos can join sensor j, at p now:
// j is connected, within the connect radius, and stays there until its
// current step ends.
func (lc *LazyCoordinator) canJoin(j int, p, pos geom.Vec, now float64) bool {
	w, cr := lc.w, lc.cfg.ConnectRadius
	return w.Sensors[j].Connected && p.WithinDist(pos, cr) && w.PosAt(j, max(w.StepEndTime(j), now)).WithinDist(pos, cr)
}

// leads reports whether sensor j, at p, can be sensor id's path parent:
// disconnected, closer to target than ahead, and not rejected.
func (lc *LazyCoordinator) leads(id, j int, p, target geom.Vec, ahead float64) bool {
	return !lc.w.Sensors[j].Connected && p.CloserThan(target, ahead) && !lc.rejected[id][j]
}

// gridNearest is the step's argmin as it is defined: over NeighborsWithin
// in grid order (the connect radius for a join, rc for a path parent),
// the first candidate of strictly smallest Dist from pos, or NoParent.
func (lc *LazyCoordinator) gridNearest(id int, join bool, pos, target geom.Vec, ahead, now float64) int {
	w := lc.w
	lc.fallbacks++
	r := w.P.Rc
	if join {
		r = lc.cfg.ConnectRadius
	}
	best, bestD := NoParent, math.Inf(1)
	for _, n := range w.NeighborsWithin(id, r) {
		ok := lc.leads(id, n.ID, n.Pos, target, ahead)
		if join {
			ok = lc.canJoin(n.ID, n.Pos, pos, now)
		}
		if !ok {
			continue
		}
		if d := n.Pos.Dist(pos); d < bestD {
			best, bestD = n.ID, d
		}
	}
	return best
}

// argmin keeps the candidate of smallest squared distance and the
// runner-up's squared distance.
type argmin struct {
	id        int
	d2, next2 float64
}

func newArgmin() argmin { return argmin{id: NoParent, d2: math.Inf(1), next2: math.Inf(1)} }

func (a *argmin) add(id int, d2 float64) {
	switch {
	case d2 < a.d2:
		a.id, a.d2, a.next2 = id, d2, a.d2
	case d2 < a.next2:
		a.next2 = d2
	}
}

// clear reports whether the winner is also the unique nearest under
// Dist, so that any visit order picks it: no runner-up, or one whose
// squared distance exceeds the winner's by more than WithinDist's 1e-9
// relative guard band, which no rounding of either side (~1e-16) can
// close. Exact ties, and near ones, fall to the grid-order scan.
func (a *argmin) clear() bool { return a.id == NoParent || a.next2 > a.d2*(1+1e-9) }

// loopDetected sends a PathParentInquiry along the path-parent chain and
// reports whether it returns to the sender.
func (lc *LazyCoordinator) loopDetected(id int) bool {
	hops := 0
	cur := lc.pathParent[id]
	for cur != NoParent && hops <= len(lc.walkers) {
		hops++
		if cur == id {
			lc.w.Msg.Count(MsgPathInquiry, hops)
			return true
		}
		cur = lc.pathParent[cur]
	}
	lc.w.Msg.Count(MsgPathInquiry, maxIntCore(hops, 1))
	return false
}

// PathParent returns sensor id's current path parent (NoParent if none),
// exposed for tests and diagnostics.
func (lc *LazyCoordinator) PathParent(id int) int { return lc.pathParent[id] }

// ReplaceWalker installs a fresh route walker for sensor id and resets its
// lazy-movement state. Used when a sensor must re-establish connectivity
// after its neighborhood dissolved (e.g. a stranded movable in FLOOR).
func (lc *LazyCoordinator) ReplaceWalker(id int, w Walker) {
	lc.walkers[id] = w
	lc.pathParent[id] = NoParent
	lc.stalled[id] = 0
	lc.rejected[id] = nil
}

// Walker returns sensor id's route walker.
func (lc *LazyCoordinator) Walker(id int) Walker { return lc.walkers[id] }

func maxIntCore(a, b int) int {
	if a > b {
		return a
	}
	return b
}
