package core

import (
	"mobisense/internal/geom"
	"mobisense/internal/spatial"
)

// UnitDiskReachable computes which positions are connected to base through
// the unit-disk graph of the given radius: two nodes are adjacent when
// within radius of each other, and a node is adjacent to the base when
// within radius of it. It returns a reachability mask.
//
// This is the ground-truth connectivity used for the flood of §4.1, for
// verifying the schemes' connectivity guarantee, and for the "Disconn."
// labels of Figure 10.
func UnitDiskReachable(positions []geom.Vec, base geom.Vec, radius float64) []bool {
	var r reachSearch
	reached := r.run(positions, base, radius)
	if r.idx != nil {
		r.idx.Release()
	}
	return reached
}

// reachSearch is the reusable state of a unit-disk reachability search;
// a world keeps one so per-sample connectivity checks allocate nothing.
type reachSearch struct {
	idx     *spatial.Index
	reached []bool
	queue   []int
}

// run computes UnitDiskReachable into the search's buffers; the returned
// mask is valid until the next run. Only unreached nodes are indexed, and
// each is removed as the search reaches it, so no query rescans a node
// already visited. The reachable set is the closure of the adjacency
// relation from the base and does not depend on visit order.
func (r *reachSearch) run(positions []geom.Vec, base geom.Vec, radius float64) []bool {
	n := len(positions)
	if n == 0 {
		return []bool{}
	}
	r.reached = resize(r.reached, n)
	reached := r.reached
	clear(reached)
	if r.idx == nil {
		r.idx = spatial.NewBounded(radius, boundsOf(positions), n)
	} else {
		r.idx.Reset(radius, boundsOf(positions))
	}
	if cap(r.queue) < n {
		r.queue = make([]int, 0, n)
	}
	queue := r.queue[:0]
	for i, p := range positions {
		if p.WithinDist(base, radius) {
			reached[i] = true
			queue = append(queue, i)
		} else {
			r.idx.Insert(i, p)
		}
	}
	for len(queue) > 0 {
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		k := len(queue)
		queue = r.idx.TakeWithin(positions[cur], radius, queue)
		for _, j := range queue[k:] {
			reached[j] = true
		}
	}
	r.queue = queue
	return reached
}

// boundsOf returns the bounding rectangle of the given points.
func boundsOf(pts []geom.Vec) geom.Rect {
	b := geom.Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		if p.X < b.Min.X {
			b.Min.X = p.X
		}
		if p.Y < b.Min.Y {
			b.Min.Y = p.Y
		}
		if p.X > b.Max.X {
			b.Max.X = p.X
		}
		if p.Y > b.Max.Y {
			b.Max.Y = p.Y
		}
	}
	return b
}

// AllConnected reports whether every position is unit-disk reachable from
// the base.
func AllConnected(positions []geom.Vec, base geom.Vec, radius float64) bool {
	for _, ok := range UnitDiskReachable(positions, base, radius) {
		if !ok {
			return false
		}
	}
	return true
}

// FloodFromBase runs the connectivity flood of §4.1 at the current time:
// sensors within the radius of the base learn they are connected and
// rebroadcast; every sensor the flood reaches is marked Connected and
// attached to the tree through the neighbor it first heard from (BFS
// parent), giving an initial shortest-hop tree. One MsgFlood transmission
// is counted per node that broadcasts (each sends once). The traversal
// runs on scratch buffers held by the world, so repeated floods allocate
// nothing.
func (w *World) FloodFromBase(radius float64) {
	n := len(w.Sensors)
	now := w.Now()
	positions := resize(w.floodPos, n)
	w.floodPos = positions
	for i := range w.Sensors {
		positions[i] = w.PosAt(i, now)
	}
	idx := spatial.NewBounded(radius, w.F.Bounds(), n)
	defer idx.Release()
	for i, p := range positions {
		idx.Insert(i, p)
	}
	visited := resize(w.floodVisited, n)
	w.floodVisited = visited
	clear(visited)
	queue := w.floodQueue[:0]
	w.Msg.Count(MsgFlood, 1) // base station's initial broadcast
	for i, p := range positions {
		if p.WithinDist(w.F.Reference(), radius) {
			visited[i] = true
			w.Sensors[i].Connected = true
			w.Tree.SetParent(i, BaseParent)
			queue = append(queue, i)
		}
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		w.Msg.Count(MsgFlood, 1) // cur rebroadcasts once
		w.candScratch = idx.AppendWithin(w.candScratch[:0], -1, positions[cur], radius)
		for _, j := range w.candScratch {
			if visited[j] {
				continue
			}
			visited[j] = true
			w.Sensors[j].Connected = true
			w.Tree.SetParent(int(j), cur)
			queue = append(queue, int(j))
		}
	}
	w.floodQueue = queue
}
