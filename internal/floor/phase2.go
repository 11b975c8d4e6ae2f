package floor

import (
	"math"

	"mobisense/internal/core"
	"mobisense/internal/coverage"
)

// identifyMovables runs phase 2 (§5.3): a depth-first traversal of the
// tree, serialized by the base station, decides for every connected sensor
// whether it may relocate. A sensor becomes movable when (a) each of its
// children can be re-parented within its 2-hop neighborhood without
// creating loops, and (b) the area it covers exclusively is below the
// movability threshold. Everyone else becomes a fixed node.
func (s *Scheme) identifyMovables() {
	w := s.w
	t := w.Tree

	// The DFS coordination message visits every tree node and returns.
	// Each sensor also gathers its two-hop neighbor list (§5.3).
	connected := 0
	for _, sen := range w.Sensors {
		if sen.Connected {
			connected++
		}
	}
	w.Msg.Count(core.MsgTreeCtl, 2*connected)
	w.Msg.Count(core.MsgBeacon, 2*connected)

	// The serialized traversal visits leaves first (deepest first,
	// post-order): a leaf has no children to re-home, so the dense initial
	// cluster dissolves into movables from the outside in, leaving the
	// base-adjacent seeds to anchor the vine. Children are visited in ID
	// order for determinism.
	var order []int
	var visit func(id int)
	visit = func(id int) {
		kids := append([]int(nil), t.Children(id)...)
		sortInts(kids)
		for _, c := range kids {
			visit(c)
		}
		order = append(order, id)
	}
	var roots []int
	for i := 0; i < w.P.N; i++ {
		if t.Parent(i) == core.BaseParent {
			roots = append(roots, i)
		}
	}
	sortInts(roots)
	for _, r := range roots {
		visit(r)
	}

	for _, id := range order {
		if s.tryMakeMovable(id) {
			s.st[id] = stateMovable
			// A movable is no longer a tree member: it must not anchor
			// joins nor count as coverage (§5.5 considers only the fixed
			// environment).
			w.Sensors[id].Connected = false
		} else {
			s.st[id] = stateFixed
			s.reg.addFixed(id, w.Pos(id))
		}
	}
	// Anyone connected but unreachable through the tree (defensive; should
	// not happen) stays fixed.
	for i := 0; i < w.P.N; i++ {
		if w.Sensors[i].Connected && s.st[i] == stateAwaiting {
			s.st[i] = stateFixed
			s.reg.addFixed(i, w.Pos(i))
		}
	}
}

// tryMakeMovable checks both §5.3 conditions for sensor id and, on
// success, re-parents its children and detaches it from the tree.
func (s *Scheme) tryMakeMovable(id int) bool {
	w := s.w
	t := w.Tree

	// The base station's direct children are exempt: they seed the vine.
	// Without at least one fixed node adjacent to the base there would be
	// no inviter left and coverage expansion could never start.
	if t.Parent(id) == core.BaseParent {
		return false
	}
	if !s.isExclusiveCoverageLow(id) {
		return false
	}

	// Find a loop-free new parent for every child among the child's
	// neighbors (the 2-hop neighborhood of id).
	kids := append([]int(nil), t.Children(id)...)
	newParents := make(map[int]int, len(kids))
	for _, c := range kids {
		np, ok := s.findNewParent(c, id)
		if !ok {
			return false
		}
		newParents[c] = np
	}
	// Commit: re-parent children, then detach.
	for _, c := range kids {
		w.Msg.Count(core.MsgTreeCtl, 2) // leave + join control traffic
		if !t.SetParent(c, newParents[c]) {
			// Extremely defensive: abandon movability if a commit fails.
			return false
		}
	}
	t.Detach(id)
	return true
}

// findNewParent returns a replacement parent for child c when `leaving`
// departs: the base station if in range, else the nearest connected,
// still-attached neighbor whose adoption creates no loop.
func (s *Scheme) findNewParent(c, leaving int) (int, bool) {
	w := s.w
	t := w.Tree
	if w.NearBase(c, s.connectR) {
		return core.BaseParent, true
	}
	pos := w.Pos(c)
	best := core.NoParent
	bestD := math.Inf(1)
	for _, n := range w.NeighborsWithin(c, s.connectR) {
		j := n.ID
		if j == leaving || !w.Sensors[j].Connected {
			continue
		}
		// Already-detached movables cannot anchor a subtree, and adopting
		// a descendant of c would create a loop.
		if s.st[j] == stateMovable || s.st[j] == stateRelocating {
			continue
		}
		if !t.InTree(j) || t.IsAncestor(c, j) {
			continue
		}
		if d := pos.Dist(n.Pos); d < bestD {
			bestD = d
			best = j
		}
	}
	if best == core.NoParent {
		return core.NoParent, false
	}
	return best, true
}

// isExclusiveCoverageLow estimates the area sensor id covers exclusively,
// sampling its disk against every physically present neighbor within 2·rs
// (§5.3 measures "the area currently covered exclusively by itself";
// already-classified movables still sit at their old positions and still
// cover area), and compares it with the movability threshold.
func (s *Scheme) isExclusiveCoverageLow(id int) bool {
	w := s.w
	pos := w.Pos(id)
	others := s.othersScratch[:0]
	for _, n := range w.NeighborsWithin(id, 2*w.P.Rs) {
		others = append(others, n.Pos)
	}
	s.othersScratch = others
	// ExclusiveAreaBelow stops sampling the disk as soon as the
	// accumulated exclusive area reaches the threshold — exact, since the
	// sampled area only grows — so clearly-unmovable sensors cost a
	// fraction of the full scan.
	limit := s.cfg.ExclusiveFrac * math.Pi * w.P.Rs * w.P.Rs
	return coverage.ExclusiveAreaBelow(w.F, pos, w.P.Rs, others, w.P.Rs/8, limit)
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
