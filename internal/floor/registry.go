package floor

import (
	"math"

	"mobisense/internal/core"
	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// nodeRecord is one fixed (or virtual place-holding) node known to a floor
// header (§5.4). Virtual records hold an EP that an invited sensor is en
// route to (§5.5.2).
type nodeRecord struct {
	id      int // sensor ID; -1 for virtual nodes
	pos     geom.Vec
	virtual bool
	token   int // removal handle for virtual nodes
}

// registry centralizes the per-floor location structures that the paper
// distributes over floor header nodes: each floor header records the
// locations of the fixed nodes in its floor, including virtual
// place-holders. The simulator keeps them in one struct and charges the
// tree-routed query messages explicitly.
type registry struct {
	floors Floors
	f      *field.Field
	perF   [][]nodeRecord
	// heads[k] is floor k's header (see header), or headerStale once
	// the floor's real records have changed since it was found.
	heads  []int
	tokens int
}

// headerStale marks a floor header to be found again.
const headerStale = -2

func newRegistry(fl Floors, f *field.Field) *registry {
	heads := make([]int, fl.Count())
	for k := range heads {
		heads[k] = -1
	}
	return &registry{
		floors: fl,
		f:      f,
		perF:   make([][]nodeRecord, fl.Count()),
		heads:  heads,
	}
}

// addFixed registers a newly fixed sensor.
func (r *registry) addFixed(id int, pos geom.Vec) {
	k := r.floors.Index(pos.Y)
	r.perF[k] = append(r.perF[k], nodeRecord{id: id, pos: pos})
	r.heads[k] = headerStale
}

// addVirtual registers a virtual place-holding node at an EP and returns a
// token for removal.
func (r *registry) addVirtual(pos geom.Vec) int {
	r.tokens++
	k := r.floors.Index(pos.Y)
	r.perF[k] = append(r.perF[k], nodeRecord{id: -1, pos: pos, virtual: true, token: r.tokens})
	return r.tokens
}

// removeFixed deletes the record of a (failed) fixed sensor.
func (r *registry) removeFixed(id int) {
	for k := range r.perF {
		list := r.perF[k]
		for i := range list {
			if !list[i].virtual && list[i].id == id {
				list[i] = list[len(list)-1]
				r.perF[k] = list[:len(list)-1]
				r.heads[k] = headerStale
				return
			}
		}
	}
}

// removeVirtual deletes a virtual node by token.
func (r *registry) removeVirtual(token int) {
	for k := range r.perF {
		list := r.perF[k]
		for i := range list {
			if list[i].virtual && list[i].token == token {
				list[i] = list[len(list)-1]
				r.perF[k] = list[:len(list)-1]
				return
			}
		}
	}
}

// queryFloors returns the floor indices whose nodes could cover point p
// with sensing range rs: the floor containing p and its two neighbors.
// Invalid slots are -1; callers skip them. Returning a fixed-size array
// keeps the per-query hot path allocation-free.
func (r *registry) queryFloors(p geom.Vec) [3]int {
	k := r.floors.Index(p.Y)
	out := [3]int{-1, -1, -1}
	for i, q := range [3]int{k - 1, k, k + 1} {
		if q >= 0 && q < r.floors.Count() {
			out[i] = q
		}
	}
	return out
}

// header returns the floor header node of floor k: the real fixed node
// with the smallest x coordinate, ties going to the smaller ID (§5.4), or
// -1 if the floor has none. The floor is scanned only when its real
// records changed since the last call.
func (r *registry) header(k int) int {
	if k < 0 || k >= len(r.perF) {
		return -1
	}
	if r.heads[k] != headerStale {
		return r.heads[k]
	}
	best := -1
	bestX := math.Inf(1)
	for _, rec := range r.perF[k] {
		if rec.virtual {
			continue
		}
		if rec.pos.X < bestX || (rec.pos.X == bestX && (best == -1 || rec.id < best)) {
			bestX = rec.pos.X
			best = rec.id
		}
	}
	r.heads[k] = best
	return best
}

// floorCovers reports whether any node registered in floor k (real or
// virtual) covers p with sensing radius rs. Records rejected by skip are
// ignored.
func (r *registry) floorCovers(k int, p geom.Vec, rs float64, skip skipSpec) bool {
	if k < 0 || k >= len(r.perF) {
		return false
	}
	rs2 := rs * rs
	for _, rec := range r.perF[k] {
		if skip.matches(rec) {
			continue
		}
		if rec.pos.Dist2(p) <= rs2 && r.f.Visible(rec.pos, p) {
			return true
		}
	}
	return false
}

// skipSpec selects coverage records to ignore: the record of the given
// real sensor ID, and (when usePos is set) any record sitting within a
// meter of pos (used to ignore the anchor virtual node itself when probing
// a chain tip's frontier). It is a plain value rather than a closure so
// the per-period coverage queries stay allocation-free. noSkip skips
// nothing.
type skipSpec struct {
	id     int
	pos    geom.Vec
	usePos bool
}

var noSkip = skipSpec{id: -1}

func (sp skipSpec) matches(rec nodeRecord) bool {
	if !rec.virtual && rec.id == sp.id {
		return true
	}
	return sp.usePos && rec.pos.Dist2(sp.pos) < 1
}

// coveredQuery implements the §5.4 point-coverage protocol for sensor
// `asker`: check local neighbors first, then query the headers of the
// floors that might contain a covering node, charging tree-routed MsgQuery
// traffic. It returns whether p is covered by any fixed or virtual node
// not rejected by skip (the asker itself is never part of the local scan).
func (r *registry) coveredQuery(w *core.World, asker int, p geom.Vec, rs float64, skip skipSpec) bool {
	// Local check: any neighbor within communication range covering p.
	for _, n := range w.NeighborsWithin(asker, w.P.Rc) {
		if !w.Sensors[n.ID].Connected || skip.matches(nodeRecord{id: n.ID, pos: n.Pos}) {
			continue
		}
		if n.Pos.WithinDist(p, rs) && w.F.Visible(n.Pos, p) {
			return true
		}
	}
	// Remote check through floor headers.
	for _, k := range r.queryFloors(p) {
		if k < 0 {
			continue
		}
		h := r.header(k)
		if h < 0 {
			continue
		}
		hops := 2 // query + response, at least one hop each way
		if h != asker {
			if d := w.Tree.TreeDist(asker, h); d > 0 {
				hops = 2 * d
			}
			w.Msg.Count(core.MsgQuery, hops)
		}
		if r.floorCovers(k, p, rs, skip) {
			return true
		}
	}
	return false
}

// nodesInFloor returns the records of floor k (for tests and rendering).
func (r *registry) nodesInFloor(k int) []nodeRecord { return r.perF[k] }
