package core

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sync"

	"mobisense/internal/field"
	"mobisense/internal/geom"
	"mobisense/internal/sim"
	"mobisense/internal/spatial"
)

// Sensor is one mobile node's slow-changing state. The per-tick motion
// state (the current step record) lives in the World's parallel arrays —
// see World.PosAt — so the hot interpolation loops stream through compact
// struct-of-arrays storage instead of chasing per-sensor pointers.
type Sensor struct {
	ID int

	// Traveled is the cumulative path length (the energy-dominating
	// metric of §6.2). It may exceed the displacement when BUG2 rounds
	// corners within a period.
	Traveled float64

	// Connected reports whether the sensor has joined the base-station
	// tree.
	Connected bool

	// Failed marks a dead sensor (§7 failure recovery): it no longer
	// moves, communicates, or counts toward coverage. Only World.Kill
	// sets it, which keeps neighbor queries' memo sound (see
	// World.NeighborsWithin).
	Failed bool

	// Phase is the offset of this sensor's period boundaries.
	Phase float64
}

// World owns the sensors, the field, the clock and the message counters; it
// is shared by every deployment scheme.
type World struct {
	P       Params
	E       *sim.Engine
	F       *field.Field
	Sensors []Sensor
	Msg     *MsgStats
	Tree    *Tree

	// Step records, struct-of-arrays indexed by sensor ID: sensor id
	// moves from stepFrom[id] to stepTo[id] during [stepT0[id],
	// stepT1[id]] at uniform speed (§3.1). Outside that window it is
	// stationary at the nearer endpoint.
	stepFrom []geom.Vec
	stepTo   []geom.Vec
	stepT0   []float64
	stepT1   []float64

	// moveEpoch[id] increments whenever sensor id's motion state changes
	// out of band — a new step record, a teleport, a failure. Together
	// with StepEndTime it lets observers (the incremental coverage
	// tracker) skip sensors whose position provably hasn't changed since
	// their last look, without schemes calling back.
	moveEpoch []uint64

	msgStore MsgStats

	idx      *spatial.Index
	lastMove float64

	// Neighbor-query scratch, reused across calls: grid candidates (also
	// FloodFromBase's), the NeighborsWithin result and the Neighbors IDs.
	candScratch []int32
	nbrScratch  []Neighbor
	idScratch   []int

	// writes counts the world writes a neighbor query reads (BeginStep,
	// Stay, Teleport, Kill). nbrScratch answers the query (memoID,
	// memoR) at time memoNow, asked when writes read memoWrites; memoID
	// is -1 when it answers none.
	writes     uint64
	memoID     int
	memoR      float64
	memoNow    float64
	memoWrites uint64

	// Neighbors' answers at radius rc, by sensor ID (see Neighbors), and
	// how many of them are settled.
	rcNbrs  []rcNbrs
	settled int

	// Settled sensors by cell of a grid over the field bounds: cellHead
	// is the first sensor of each cell's list (-1 when empty), linked
	// through rcNbrs' next and prev. A settled sensor is static, so it
	// stays in the cell of its position until its answer drops. Points
	// outside the bounds belong to the nearest edge cell.
	cellHead   []int32
	cellOrigin geom.Vec
	cellSize   float64
	ncx, ncy   int32

	// Flood scratch (see FloodFromBase), reused across floods and runs.
	floodPos     []geom.Vec
	floodVisited []bool
	floodQueue   []int

	// Trace-sampling layout (see SampleTrace) and the stranded-sensor
	// layout and IDs (see PhysicallyStranded), reused across calls and
	// runs. Both run their connectivity search on reach and consume its
	// mask before returning.
	traceLayout []geom.Vec
	strandPos   []geom.Vec
	strandIDs   []int
	reach       reachSearch
}

// Neighbor is one sensor found by a neighbor query, with its position at
// the query time.
type Neighbor struct {
	ID  int
	Pos geom.Vec
}

// worldPool recycles worlds — their sensor arrays, step records and
// scratch buffers — across runs; batch sweeps build one world per run.
var worldPool sync.Pool

// NewWorld builds a world with sensors placed uniformly at random in
// P.InitRegion (clipped to free space). Pooled storage from released
// worlds is reused when available (see Release).
func NewWorld(f *field.Field, p Params) (*World, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w, _ := worldPool.Get().(*World)
	if w == nil {
		w = &World{}
	}
	w.P = p
	w.E = sim.NewEngine(p.Seed)
	w.F = f
	w.Tree = NewTree(p.N)
	w.idx = spatial.NewBounded(p.Rc, f.Bounds(), p.N)
	w.msgStore = MsgStats{}
	w.Msg = &w.msgStore
	w.lastMove = 0
	w.writes, w.memoID = 0, -1
	w.Sensors = resize(w.Sensors, p.N)
	w.stepFrom = resize(w.stepFrom, p.N)
	w.stepTo = resize(w.stepTo, p.N)
	w.stepT0 = resize(w.stepT0, p.N)
	w.stepT1 = resize(w.stepT1, p.N)
	w.moveEpoch = resize(w.moveEpoch, p.N)
	clear(w.moveEpoch)
	w.rcNbrs = resize(w.rcNbrs, p.N)
	for i := range w.rcNbrs {
		w.rcNbrs[i].state = nbrsNone // keep the ID arrays' capacity
	}
	w.settled = 0
	w.resetCells(f.Bounds())
	rng := w.E.Rand()
	for i := 0; i < p.N; i++ {
		pos := f.RandomFreePoint(rng, p.InitRegion)
		w.Sensors[i] = Sensor{ID: i}
		if p.PhaseJitter > 0 {
			w.Sensors[i].Phase = rng.Float64() * p.PhaseJitter * p.Period
		}
		w.stepFrom[i] = pos
		w.stepTo[i] = pos
		w.stepT0[i] = 0
		w.stepT1[i] = 0
		w.idx.Insert(i, pos)
	}
	return w, nil
}

// resize returns s with length n, reusing capacity; contents are
// unspecified (callers overwrite every element).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Release returns the world's pooled internals — the event engine's heap,
// the spatial index, the tree and the world's own arrays — for reuse by
// future runs, cutting GC pressure in large batch sweeps (one world is
// built per run). The caller must be done with the world, its engine and
// its schemes: no field of the world may be touched after Release.
func (w *World) Release() {
	w.E.Release()
	w.idx.Release()
	w.Tree.Release()
	w.E = nil
	w.idx = nil
	w.Tree = nil
	w.F = nil
	w.Msg = nil
	worldPool.Put(w)
}

// Now returns the current simulation time.
func (w *World) Now() float64 { return w.E.Now() }

// Pos returns sensor id's position at the current time.
func (w *World) Pos(id int) geom.Vec { return w.PosAt(id, w.Now()) }

// PosAt returns sensor id's position at time t, interpolating its current
// step record.
func (w *World) PosAt(id int, t float64) geom.Vec {
	switch {
	case t <= w.stepT0[id]:
		return w.stepFrom[id]
	case t >= w.stepT1[id]:
		return w.stepTo[id]
	default:
		return w.stepFrom[id].Lerp(w.stepTo[id], (t-w.stepT0[id])/(w.stepT1[id]-w.stepT0[id]))
	}
}

// Moving reports whether sensor id is mid-step at time t.
func (w *World) Moving(id int, t float64) bool {
	return t >= w.stepT0[id] && t < w.stepT1[id] && !w.stepFrom[id].Eq(w.stepTo[id])
}

// StepEndTime returns the end time of sensor id's current step record
// (its committed position stops changing at that time).
func (w *World) StepEndTime(id int) float64 { return w.stepT1[id] }

// BeginStep commits sensor id to move from its current position to `to`
// during the next dur seconds, traveling pathLen meters (pathLen may exceed
// the displacement when the underlying path bends around obstacle corners).
// The paper's motion model (§3.1): one straight-line step per period at
// uniform speed.
func (w *World) BeginStep(id int, to geom.Vec, pathLen, dur float64) {
	now := w.Now()
	from := w.PosAt(id, now)
	if pathLen < 0 {
		panic(fmt.Sprintf("core: negative path length %v for sensor %d", pathLen, id))
	}
	maxLen := w.P.Speed*dur + 1e-6
	if pathLen > maxLen {
		panic(fmt.Sprintf("core: step of %v m exceeds speed limit %v m for sensor %d", pathLen, maxLen, id))
	}
	w.stepFrom[id] = from
	w.stepTo[id] = to
	w.stepT0[id] = now
	w.stepT1[id] = now + dur
	w.moveEpoch[id]++
	w.writes++
	w.Sensors[id].Traveled += pathLen
	if pathLen > 1e-9 {
		w.lastMove = now + dur
		w.idx.Insert(id, from)
	}
	if from != to {
		w.dropNbrs(id)
		w.unsettleStep(from, to)
	}
}

// Teleport instantly places sensor id at pos without charging moving
// distance. It is used for scenario setup in tests and for baselines whose
// pre-computed relocation cost is accounted separately (the explosion phase
// of §6.2).
func (w *World) Teleport(id int, pos geom.Vec) {
	now := w.Now()
	w.dropNbrs(id)
	w.dropSettledNear(w.PosAt(id, now))
	w.dropSettledNear(pos)
	w.stepFrom[id] = pos
	w.stepTo[id] = pos
	w.stepT0[id] = now
	w.stepT1[id] = now
	w.moveEpoch[id]++
	w.writes++
	w.idx.Insert(id, pos)
}

// MoveEpoch returns sensor id's motion-change counter; see moveEpoch.
func (w *World) MoveEpoch(id int) uint64 { return w.moveEpoch[id] }

// Stay commits sensor id to remain stationary for the next dur seconds.
func (w *World) Stay(id int, dur float64) {
	now := w.Now()
	pos := w.PosAt(id, now)
	w.stepFrom[id] = pos
	w.stepTo[id] = pos
	w.stepT0[id] = now
	w.stepT1[id] = now + dur
	w.writes++
}

// NeighborsWithin returns every other live sensor within radius r of
// sensor id at the current time, with its position then. The spatial
// index stores step-start positions, so the grid query is padded by twice
// the maximum per-period displacement and then filtered exactly. The
// order is the grid's, deterministic for a fixed history. The result is
// scratch owned by the world, valid until the next NeighborsWithin or
// Neighbors call: a caller ranging over it must not query again inside
// its loop, and must not modify it.
//
// Asking the previous question again (same sensor, radius and instant,
// with no BeginStep, Stay, Teleport or Kill since) returns the previous
// answer without a scan: the answer is a function of exactly those
// inputs.
func (w *World) NeighborsWithin(id int, r float64) []Neighbor {
	now := w.Now()
	if id == w.memoID && r == w.memoR && now == w.memoNow && w.writes == w.memoWrites {
		return w.nbrScratch
	}
	w.scan(id, r, now)
	return w.nbrScratch
}

// scan answers NeighborsWithin(id, r) at time now into nbrScratch and
// records it as the memo. The padded window's candidates stay in
// candScratch until the next grid query.
func (w *World) scan(id int, r, now float64) {
	center := w.PosAt(id, now)
	pad := 2 * w.P.MaxStep()
	w.candScratch = w.idx.AppendWithin(w.candScratch[:0], id, center, r+pad)
	out := w.nbrScratch[:0]
	for _, j := range w.candScratch {
		if w.Sensors[j].Failed {
			continue
		}
		if p := w.PosAt(int(j), now); p.WithinDist(center, r) {
			out = append(out, Neighbor{ID: int(j), Pos: p})
		}
	}
	w.nbrScratch = out
	w.memoID, w.memoR, w.memoNow, w.memoWrites = id, r, now, w.writes
}

// Neighbors returns the IDs of sensors within radius r of sensor id at the
// current time, in ascending order. The returned slice is owned by the
// world: callers must not modify it, and it is valid until the next
// Neighbors call.
//
// Answers at radius rc (FLOOR's invitation walks, which look up the same
// sensors over and over) are kept per sensor. One computed while the
// sensor or a sensor that may cross its circle is moving holds at its
// instant until the next world write, like NeighborsWithin's memo. One
// computed while the sensor is live and static and every mid-step sensor
// in the padded window keeps to one side of its rc circle for the rest of
// its step is settled: no position or liveness it depends on can change
// without a BeginStep, Teleport or Kill, so it holds across instants
// until one of those drops it (see unsettleStep and dropSettledNear).
// Sensors outside the window cannot come within rc before their next
// BeginStep: every indexed position is within MaxStep of every position
// of the current step, and the pad is 2·MaxStep. The IDs are sorted, so a
// kept answer is the scan's bit for bit.
func (w *World) Neighbors(id int, r float64) []int {
	if r != w.P.Rc {
		out := w.idScratch[:0]
		for _, n := range w.NeighborsWithin(id, r) {
			out = append(out, n.ID)
		}
		// NeighborsWithin returns grid order; sort for determinism
		// across index states.
		slices.Sort(out)
		w.idScratch = out
		return out
	}
	now := w.Now()
	e := &w.rcNbrs[id]
	if e.state == nbrsSettled || (e.state == nbrsInstant && e.at == now && e.writes == w.writes) {
		return e.ids
	}
	w.scan(id, r, now)
	ids := e.ids[:0]
	for _, n := range w.nbrScratch {
		ids = append(ids, n.ID)
	}
	slices.Sort(ids)
	*e = rcNbrs{ids: ids, at: now, writes: w.writes, state: nbrsInstant}
	if w.settles(id, now) {
		w.settle(id)
	}
	return ids
}

// rcNbrs is one sensor's kept Neighbors answer at radius rc: ids, asked
// at time at when the world's write count read writes. A settled answer
// sits on the list of cell, between prev and next (-1 at the ends).
type rcNbrs struct {
	ids              []int
	at               float64
	writes           uint64
	state            uint8
	cell, prev, next int32
}

// rcNbrs states.
const (
	nbrsNone    = iota // no answer kept
	nbrsInstant        // valid at its instant while the write count holds
	nbrsSettled        // valid until a write drops it
)

// settleEps is the margin, in meters, by which a settled answer's movers
// must clear its circle. Squared distances and interpolated positions
// round far below it, so a step that clears the circle by settleEps on
// paper stays on its side under WithinDist at every instant.
const settleEps = 1e-6

// settles reports whether sensor id's rc answer at time now, just
// scanned, is settled: the sensor is live and static for the rest of its
// step record, and every candidate of the padded window (left in
// candScratch by the scan) that is mid-step keeps to one side of the
// circle until its step ends.
func (w *World) settles(id int, now float64) bool {
	if w.Sensors[id].Failed || (now < w.stepT1[id] && w.stepFrom[id] != w.stepTo[id]) {
		return false
	}
	center := w.stepTo[id]
	for _, j := range w.candScratch {
		if now >= w.stepT1[j] || w.stepFrom[j] == w.stepTo[j] {
			continue
		}
		if !oneSide(center, w.PosAt(int(j), now), w.stepTo[j], w.P.Rc) {
			return false
		}
	}
	return true
}

// oneSide reports whether every point of segment ab is on one side of
// the circle of radius r around c, with margin settleEps: both ends at
// most r − settleEps from c (the disk is convex), or the whole segment
// more than r + settleEps away.
func oneSide(c, a, b geom.Vec, r float64) bool {
	in, out := r-settleEps, r+settleEps
	if a.Dist2(c) <= in*in && b.Dist2(c) <= in*in {
		return true
	}
	return geom.Seg(a, b).ClosestPoint(c).Dist2(c) > out*out
}

// maxSettledCells bounds the settled-list grid; a tiny rc over a large
// field gets coarser cells instead of a huge, mostly empty array.
const maxSettledCells = 1 << 12

// resetCells empties the settled lists and lays their grid over bounds b
// with cells of rc, doubled until the grid fits maxSettledCells.
func (w *World) resetCells(b geom.Rect) {
	w.cellOrigin, w.cellSize = b.Min, w.P.Rc
	var nx, ny float64
	for {
		nx, ny = max(1, math.Ceil(b.W()/w.cellSize)), max(1, math.Ceil(b.H()/w.cellSize))
		if nx*ny <= maxSettledCells {
			break
		}
		w.cellSize *= 2
	}
	w.ncx, w.ncy = int32(nx), int32(ny)
	w.cellHead = resize(w.cellHead, int(w.ncx)*int(w.ncy))
	for i := range w.cellHead {
		w.cellHead[i] = -1
	}
}

// cellCoord returns the grid column (or row) of coordinate v along an
// axis starting at lo with n cells, clamped to the grid. It is monotone
// in v, so a rectangle's corner cells bound the cells of every point in
// it.
func (w *World) cellCoord(v, lo float64, n int32) int32 {
	f := (v - lo) / w.cellSize
	switch {
	case !(f >= 0):
		return 0
	case f >= float64(n):
		return n - 1
	}
	return int32(f)
}

// cellOf returns the settled-list cell holding p.
func (w *World) cellOf(p geom.Vec) int32 {
	return w.cellCoord(p.Y, w.cellOrigin.Y, w.ncy)*w.ncx + w.cellCoord(p.X, w.cellOrigin.X, w.ncx)
}

// settle marks sensor id's kept answer settled and lists it in the cell
// of its position.
func (w *World) settle(id int) {
	e := &w.rcNbrs[id]
	e.state = nbrsSettled
	e.cell = w.cellOf(w.stepTo[id])
	e.prev, e.next = -1, w.cellHead[e.cell]
	if e.next >= 0 {
		w.rcNbrs[e.next].prev = int32(id)
	}
	w.cellHead[e.cell] = int32(id)
	w.settled++
}

// dropNbrs forgets sensor id's kept rc answer, unlisting it if settled.
func (w *World) dropNbrs(id int) {
	e := &w.rcNbrs[id]
	if e.state == nbrsSettled {
		if e.prev >= 0 {
			w.rcNbrs[e.prev].next = e.next
		} else {
			w.cellHead[e.cell] = e.next
		}
		if e.next >= 0 {
			w.rcNbrs[e.next].prev = e.prev
		}
		w.settled--
	}
	e.state = nbrsNone
}

// settledIn yields the settled sensors listed in the cells over the
// rectangle [lo, hi], padded by settleEps against rounding at its edges.
// The loop body may drop the sensor it is given.
func (w *World) settledIn(lo, hi geom.Vec) iter.Seq[int32] {
	return func(yield func(int32) bool) {
		x0, x1 := w.cellCoord(lo.X-settleEps, w.cellOrigin.X, w.ncx), w.cellCoord(hi.X+settleEps, w.cellOrigin.X, w.ncx)
		y0, y1 := w.cellCoord(lo.Y-settleEps, w.cellOrigin.Y, w.ncy), w.cellCoord(hi.Y+settleEps, w.cellOrigin.Y, w.ncy)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				for c := w.cellHead[cy*w.ncx+cx]; c >= 0; {
					next := w.rcNbrs[c].next
					if !yield(c) {
						return
					}
					c = next
				}
			}
		}
	}
}

// unsettleStep drops the settled answers a new step from → to may
// change: those of the sensors whose rc circle the step does not keep to
// one side of. Such a circle comes within rc + settleEps of the segment,
// so its sensor is within rc + |to − from| + settleEps of from and in
// the segment's bounding box widened by rc + settleEps, whose cells'
// lists are all that is visited.
func (w *World) unsettleStep(from, to geom.Vec) {
	if w.settled == 0 {
		return
	}
	rc := w.P.Rc
	reach := rc + from.Dist(to) + settleEps
	pad := geom.V(rc+settleEps, rc+settleEps)
	lo, hi := geom.V(min(from.X, to.X), min(from.Y, to.Y)).Sub(pad), geom.V(max(from.X, to.X), max(from.Y, to.Y)).Add(pad)
	for c := range w.settledIn(lo, hi) {
		if w.stepTo[c].Dist2(from) <= reach*reach && !oneSide(w.stepTo[c], from, to, rc) {
			w.dropNbrs(int(c))
		}
	}
}

// dropSettledNear drops the settled answers of every sensor within
// rc + settleEps of p, where a sensor appears or disappears.
func (w *World) dropSettledNear(p geom.Vec) {
	if w.settled == 0 {
		return
	}
	r := w.P.Rc + settleEps
	for c := range w.settledIn(p.Sub(geom.V(r, r)), p.Add(geom.V(r, r))) {
		if w.stepTo[c].Dist2(p) <= r*r {
			w.dropNbrs(int(c))
		}
	}
}

// NearBase reports whether sensor id is within radius r of the base
// station.
func (w *World) NearBase(id int, r float64) bool {
	return w.Pos(id).WithinDist(w.F.Reference(), r)
}

// Layout returns a snapshot of all sensor positions at the current time.
func (w *World) Layout() []geom.Vec {
	out := make([]geom.Vec, len(w.Sensors))
	now := w.Now()
	for i := range w.Sensors {
		out[i] = w.PosAt(i, now)
	}
	return out
}

// AvgTraveled returns the mean cumulative moving distance per sensor.
func (w *World) AvgTraveled() float64 {
	var sum float64
	for i := range w.Sensors {
		sum += w.Sensors[i].Traveled
	}
	return sum / float64(len(w.Sensors))
}

// LastMoveTime returns the time at which the last committed movement ends,
// i.e. the convergence time of the deployment so far.
func (w *World) LastMoveTime() float64 { return w.lastMove }

// ConnectedCount returns the number of sensors flagged Connected.
func (w *World) ConnectedCount() int {
	n := 0
	for i := range w.Sensors {
		if w.Sensors[i].Connected {
			n++
		}
	}
	return n
}

// PeriodStart returns the first decision time at or after t for sensor id,
// respecting its phase offset.
func (w *World) PeriodStart(id int, t float64) float64 {
	phase := w.Sensors[id].Phase
	T := w.P.Period
	if t <= phase {
		return phase
	}
	k := (t - phase) / T
	ki := float64(int(k))
	if k > ki {
		ki++
	}
	return phase + ki*T
}
