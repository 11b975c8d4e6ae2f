package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// How Neighbors(id, Rc) answers, classified from the kept answer before
// the call.
const (
	pathScan = iota
	pathSameInstant
	pathCrossInstant
	numPaths
)

var pathNames = [numPaths]string{"scan", "same-instant hit", "cross-instant hit"}

// cacheStats counts what TestNeighborsCacheMatchesScan exercised.
type cacheStats struct {
	paths [numPaths]int
	// Settled answers near a BeginStep's path (within the invalidation
	// radius of its start) that the step dropped or kept.
	stepDrops, stepKeeps int
	// Boundary steps by shape: starting on, ending on, or passing by an
	// rc circle.
	boundary [3]int
	// Writes at one instant between two identical questions whose fresh
	// answer differed from the first.
	changedBetween int
	// Answers that settled at the end of a step that moved the sensor,
	// where the step record's start is not the sensor's position.
	settledAfterStep int
}

// lookupPath classifies how Neighbors(id, Rc) is about to answer.
func lookupPath(w *World, id int) int {
	e := w.rcNbrs[id]
	switch {
	case e.state == nbrsSettled && e.at != w.Now():
		return pathCrossInstant
	case e.state == nbrsSettled, e.state == nbrsInstant && e.at == w.Now() && e.writes == w.writes:
		return pathSameInstant
	}
	return pathScan
}

// checkNeighbors asks Neighbors(id, Rc) and compares the answer with the
// O(N) scan of current positions.
func checkNeighbors(t *testing.T, w *World, id int, st *cacheStats) []int {
	t.Helper()
	st.paths[lookupPath(w, id)]++
	was := w.rcNbrs[id].state
	got := w.Neighbors(id, w.P.Rc)
	if was != nbrsSettled && w.rcNbrs[id].state == nbrsSettled && w.stepFrom[id] != w.stepTo[id] {
		st.settledAfterStep++
	}
	if want := bruteNeighbors(w, id, w.P.Rc); !slices.Equal(got, want) {
		t.Fatalf("t=%v: Neighbors(%d, rc) = %v, scan %v (kept state %d)", w.Now(), id, got, want, w.rcNbrs[id].state)
	}
	checkSettledLists(t, w)
	return got
}

// checkSettledLists checks the per-cell settled lists against the kept
// answers: each list is well linked and holds settled sensors only, each
// once and in the cell of its current position (clamped to the grid,
// computed here from the coordinates), and the lists together hold every
// settled sensor.
func checkSettledLists(t *testing.T, w *World) {
	t.Helper()
	coord := func(v, lo float64, n int32) int32 {
		return int32(min(max(math.Floor((v-lo)/w.cellSize), 0), float64(n-1)))
	}
	listed := make([]bool, len(w.Sensors))
	n := 0
	for cell, head := range w.cellHead {
		prev := int32(-1)
		for c := head; c >= 0; c = w.rcNbrs[c].next {
			e := w.rcNbrs[c]
			p := w.Pos(int(c))
			at := coord(p.Y, w.cellOrigin.Y, w.ncy)*w.ncx + coord(p.X, w.cellOrigin.X, w.ncx)
			switch {
			case listed[c]:
				t.Fatalf("t=%v: sensor %d listed twice", w.Now(), c)
			case e.state != nbrsSettled:
				t.Fatalf("t=%v: sensor %d listed in cell %d with state %d", w.Now(), c, cell, e.state)
			case e.prev != prev || int(e.cell) != cell:
				t.Fatalf("t=%v: sensor %d in cell %d links prev %d cell %d, want prev %d", w.Now(), c, cell, e.prev, e.cell, prev)
			case int(at) != cell:
				t.Fatalf("t=%v: sensor %d at %v listed in cell %d, its position's cell is %d", w.Now(), c, p, cell, at)
			}
			listed[c] = true
			prev = c
			n++
		}
	}
	for i := range w.rcNbrs {
		if w.rcNbrs[i].state == nbrsSettled && !listed[i] {
			t.Fatalf("t=%v: settled sensor %d is on no list", w.Now(), i)
		}
	}
	if n != w.settled {
		t.Fatalf("t=%v: %d sensors listed, settled count %d", w.Now(), n, w.settled)
	}
}

// cacheMotion schedules every sensor's writes at jittered times. Most
// sensors stay put most periods, as FLOOR's fixed sensors do, so settled
// answers are common. A handler may begin an ordinary step, a step of
// zero displacement or one whose path is under 1e-9 m, a boundary step
// that starts on, ends on or passes by a static sensor's rc circle within
// 1e-9 to 1e-3 m (after a Teleport to its start), a Stay that is often
// mid-step, a Teleport, or a Kill. Before a boundary step it asks the
// static sensor's question so its answer can settle, and it counts the
// settled answers near the step that the step drops and keeps.
func cacheMotion(t *testing.T, w *World, rng *rand.Rand, st *cacheStats) {
	b := w.F.Bounds()
	rc, maxStep := w.P.Rc, w.P.MaxStep()
	unit := func() geom.Vec { return geom.V(rng.NormFloat64(), rng.NormFloat64()).Unit() }
	boundaryStep := func(m int) {
		c := rng.IntN(len(w.Sensors))
		if c == m || w.Sensors[c].Failed || w.Moving(c, w.Now()) {
			return
		}
		deltas := []float64{0, 1e-9, 1e-6, 1e-4, 1e-3}
		d := deltas[rng.IntN(len(deltas))]
		if rng.IntN(2) == 0 {
			d = -d
		}
		u, s := unit(), maxStep*(0.2+0.8*rng.Float64())
		on := w.Pos(c).Add(u.Scale(rc + d))
		var from, to geom.Vec
		shape := rng.IntN(3)
		switch shape {
		case 0: // starts on the circle
			from, to = on, on.Add(unit().Scale(s))
		case 1: // ends on the circle
			from, to = on.Add(unit().Scale(s)), on
		case 2: // passes by: tangent to the circle at on
			tan := u.Perp().Scale(s / 2)
			from, to = on.Sub(tan), on.Add(tan)
		}
		st.boundary[shape]++
		w.Teleport(m, from)
		checkSettledLists(t, w)
		checkNeighbors(t, w, c, st)
		settled := make([]bool, len(w.Sensors))
		for i := range w.Sensors {
			settled[i] = w.rcNbrs[i].state == nbrsSettled
		}
		w.BeginStep(m, to, from.Dist(to), w.P.Period)
		checkSettledLists(t, w)
		reach := rc + from.Dist(to) + settleEps
		for i, was := range settled {
			if !was || i == m || !w.Pos(i).WithinDist(from, reach) {
				continue
			}
			if w.rcNbrs[i].state == nbrsSettled {
				st.stepKeeps++
			} else {
				st.stepDrops++
			}
		}
	}
	for i := range w.Sensors {
		id := i
		anchor := rng.IntN(2) == 0
		var act func()
		act = func() {
			if w.Sensors[id].Failed {
				return
			}
			defer checkSettledLists(t, w)
			k := rng.IntN(40)
			if anchor && k < 30 {
				k = 39 // anchors mostly stay
			}
			from := w.Pos(id)
			switch {
			case k < 8:
				to := from.Add(unit().Scale(rng.Float64() * maxStep))
				w.BeginStep(id, to, from.Dist(to), w.P.Period)
				// Ask at the step's end before any later write, as a
				// lazy step does at its next period start.
				w.E.Schedule(w.P.Period, func() {
					if !w.Sensors[id].Failed {
						checkNeighbors(t, w, id, st)
					}
				})
			case k < 14:
				boundaryStep(id)
			case k < 16:
				w.BeginStep(id, from, 0, w.P.Period) // zero displacement
			case k < 18:
				tiny := from.Add(unit().Scale(5e-10))
				w.BeginStep(id, tiny, from.Dist(tiny), w.P.Period) // path under 1e-9
			case k < 20:
				w.Teleport(id, geom.V(b.Min.X+rng.Float64()*b.W(), b.Min.Y+rng.Float64()*b.H()))
			case k < 21:
				if w.AliveCount() > len(w.Sensors)/2 {
					w.Kill(id)
					return
				}
			default:
				w.Stay(id, w.P.Period)
			}
			// Mostly at period boundaries, sometimes mid-step (a Stay
			// there stops a step short).
			next := w.P.Period
			if rng.IntN(4) == 0 {
				next *= 0.2 + 0.6*rng.Float64()
			}
			w.E.Schedule(next, act)
		}
		w.E.ScheduleAt(w.PeriodStart(id, 0), act)
	}
}

// TestNeighborsCacheMatchesScan checks the kept rc answers of
// World.Neighbors against a fresh sorted O(N) scan (PosAt + WithinDist):
// across instants, several times within one instant, around boundary
// steps, and around a write between two identical questions at one
// instant. After every write and every lookup, checkSettledLists checks
// the per-cell lists that writes find settled answers through. The worlds are seeded and pooled, with jittered phases; some
// instants also run a flood and padded queries between lookups, which
// share the world's query scratch. It asserts that all three paths
// answer, that BeginStep both drops and keeps settled answers near its
// path, and that warm lookups allocate nothing.
func TestNeighborsCacheMatchesScan(t *testing.T) {
	var st cacheStats
	instants := 0
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewPCG(1417, uint64(trial)))
		f := field.MustNew(geom.R(0, 0, 300, 240), nil)
		p := DefaultParams()
		p.N = 80
		p.Seed = uint64(trial + 1)
		p.PhaseJitter = 0.5
		p.InitRegion = f.Bounds()
		if trial == 4 {
			p.Rc = 3 // rc cells would overflow maxSettledCells
		}
		w, err := NewWorld(f, p)
		if err != nil {
			t.Fatal(err)
		}
		if cells := int(w.ncx) * int(w.ncy); cells > maxSettledCells || (trial == 4) != (w.cellSize > p.Rc) {
			t.Fatalf("trial %d: %d settled-list cells of %v m at rc %v", trial, cells, w.cellSize, p.Rc)
		}
		cacheMotion(t, w, rng, &st)
		for k := 0; k < 60; k++ {
			w.E.RunUntil(w.Now() + 0.05 + 0.6*rng.Float64())
			instants++
			if k%5 == 0 {
				w.FloodFromBase(p.Rc)
			}
			for pass := 0; pass < 2; pass++ {
				for id := range w.Sensors {
					checkNeighbors(t, w, id, &st)
					if rng.IntN(8) == 0 {
						checkQuery(t, w, rng.IntN(p.N), p.Rc)
					}
				}
			}
			// A write between two identical questions: a sensor
			// outside the answer teleports into the circle, or a member
			// dies.
			for range 3 {
				id := rng.IntN(p.N)
				if w.Sensors[id].Failed {
					continue
				}
				before := slices.Clone(checkNeighbors(t, w, id, &st))
				target := rng.IntN(p.N)
				switch {
				case target == id || w.Sensors[target].Failed:
					continue
				case len(before) > 0 && rng.IntN(3) == 0 && w.AliveCount() > p.N/2:
					w.Kill(before[rng.IntN(len(before))])
				default:
					w.Teleport(target, w.Pos(id).Add(geom.V(p.Rc/2, 0)))
				}
				checkSettledLists(t, w)
				if got := checkNeighbors(t, w, id, &st); !slices.Equal(got, before) {
					st.changedBetween++
				}
			}
		}
		if w.AliveCount() == p.N {
			t.Fatalf("trial %d: no sensor died; the test must cover Kill", trial)
		}
		for id := range w.Sensors {
			w.Neighbors(id, p.Rc)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			for id := range w.Sensors {
				w.Neighbors(id, p.Rc)
			}
		}); allocs != 0 {
			t.Errorf("trial %d: warm lookups allocate %v times per pass, want 0", trial, allocs)
		}
		w.Release()
	}
	t.Logf("%d instants; paths %v; BeginStep near settled answers: %d dropped, %d kept; boundary steps %v; %d writes changed an answer between identical questions; %d answers settled at a step's end",
		instants, st.paths, st.stepDrops, st.stepKeeps, st.boundary, st.changedBetween, st.settledAfterStep)
	for path, n := range st.paths {
		if n == 0 {
			t.Errorf("no lookup took the %s path", pathNames[path])
		}
	}
	if st.stepDrops == 0 || st.stepKeeps == 0 {
		t.Errorf("BeginStep dropped %d and kept %d settled answers near its path; want both > 0", st.stepDrops, st.stepKeeps)
	}
	for shape, n := range st.boundary {
		if n == 0 {
			t.Errorf("no boundary step of shape %d", shape)
		}
	}
	if st.changedBetween == 0 {
		t.Error("no write between two identical questions changed the answer")
	}
	if st.settledAfterStep == 0 {
		t.Error("no answer settled at the end of a step")
	}
}

// TestNeighborsCacheLaggingGrid: a step is checked against every settled
// answer it can cross even when the grid still holds the settled sensor
// a full step behind its position. Sensor c ends a MaxStep step, so its
// grid entry lags by MaxStep, and settles; sensor m then steps from just
// beyond c's circle, on the far side from the lag, into it.
func TestNeighborsCacheLaggingGrid(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 400, 400), nil)
	p := DefaultParams()
	p.N = 2
	p.PhaseJitter = 0
	w, err := NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	const c, m = 0, 1
	step := p.MaxStep()
	u := geom.V(0.6, 0.8)
	p0 := geom.V(150, 150)
	w.Teleport(c, p0)
	w.Teleport(m, geom.V(390, 390))
	w.BeginStep(c, p0.Add(u.Scale(step)), step, p.Period)
	w.E.RunUntil(w.Now() + p.Period)
	checkNeighbors(t, w, c, &cacheStats{})
	if w.rcNbrs[c].state != nbrsSettled {
		t.Fatalf("c's answer did not settle (state %d)", w.rcNbrs[c].state)
	}
	// m starts rc + 0.9·step from c, 0.9·step + MaxStep + rc from c's grid
	// position, and ends 0.1·step inside c's circle.
	start := w.Pos(c).Add(u.Scale(p.Rc + 0.9*step))
	w.Teleport(m, start)
	w.BeginStep(m, start.Sub(u.Scale(step)), step, p.Period)
	w.E.RunUntil(w.Now() + p.Period)
	if got := checkNeighbors(t, w, c, &cacheStats{}); !slices.Equal(got, []int{m}) {
		t.Fatalf("after m's step into c's circle: Neighbors(c) = %v, want [%d]", got, m)
	}
}

// BenchmarkWalkNeighbors measures FLOOR's invitation-walk lookups over
// World.Neighbors: 240 sensors on a 500 m × 500 m field with jittered
// phases, ~10% of them stepping each period. Each op advances one of 8
// seeded layouts (cycled, so no one layout's answers stay warm in the
// cache hierarchy) through a period in 3 instants, and at each instant
// runs 8 non-backtracking walks of TTL 0.2·N = 48 hops.
func BenchmarkWalkNeighbors(b *testing.B) {
	const layouts, instants, walks = 8, 3, 8
	f := field.MustNew(geom.R(0, 0, 500, 500), nil)
	worlds := make([]*World, layouts)
	rngs := make([]*rand.Rand, layouts)
	for k := range worlds {
		p := DefaultParams()
		p.Seed = uint64(k + 1)
		p.InitRegion = f.Bounds()
		w, err := NewWorld(f, p)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(17, uint64(k)))
		for i := range w.Sensors {
			id := i
			var act func()
			act = func() {
				if rng.IntN(10) == 0 {
					from := w.Pos(id)
					to := from.Add(geom.V(rng.NormFloat64(), rng.NormFloat64()).Unit().Scale(p.MaxStep())).Clamp(f.Bounds())
					w.BeginStep(id, to, from.Dist(to), p.Period)
				} else {
					w.Stay(id, p.Period)
				}
				w.E.Schedule(p.Period, act)
			}
			w.E.ScheduleAt(w.PeriodStart(id, 0), act)
		}
		worlds[k], rngs[k] = w, rng
	}
	op := func(k int) {
		w, rng := worlds[k], rngs[k]
		ttl := w.P.N / 5
		for range instants {
			w.E.RunUntil(w.Now() + w.P.Period/instants)
			for range walks {
				cur, prev := rng.IntN(w.P.N), -1
				for range ttl {
					nbrs := w.Neighbors(cur, w.P.Rc)
					if len(nbrs) == 0 {
						break
					}
					k := rng.IntN(len(nbrs))
					if nbrs[k] == prev && len(nbrs) > 1 {
						k = (k + 1) % len(nbrs)
					}
					prev, cur = cur, nbrs[k]
				}
			}
		}
	}
	// Untimed warm-up: periods in which every sensor is asked grow
	// every buffer to its working size.
	for k, w := range worlds {
		for range 10 {
			op(k)
			for id := range w.Sensors {
				w.Neighbors(id, w.P.Rc)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i % layouts)
	}
}
