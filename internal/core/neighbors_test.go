package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// bruteNeighbors is the O(N) reference for NeighborsWithin: every other
// live sensor whose current position is within r of sensor id's, in
// ascending ID order.
func bruteNeighbors(w *World, id int, r float64) []int {
	now := w.Now()
	center := w.PosAt(id, now)
	var out []int
	for j := range w.Sensors {
		if j != id && !w.Sensors[j].Failed && w.PosAt(j, now).WithinDist(center, r) {
			out = append(out, j)
		}
	}
	return out
}

// randomMotion schedules, for every sensor, a handler that fires at
// jittered times and randomly begins a step of up to MaxStep, stays,
// teleports or dies, so index entries lag current positions the way
// the schemes' motion makes them lag.
func randomMotion(w *World, rng *rand.Rand) {
	b := w.F.Bounds()
	for i := range w.Sensors {
		id := i
		var act func()
		act = func() {
			if w.Sensors[id].Failed {
				return
			}
			switch k := rng.IntN(20); {
			case k < 11:
				from := w.Pos(id)
				d := geom.V(rng.NormFloat64(), rng.NormFloat64()).Unit().Scale(rng.Float64() * w.P.MaxStep())
				to := from.Add(d).Clamp(b)
				w.BeginStep(id, to, from.Dist(to), w.P.Period)
			case k < 16:
				w.Stay(id, w.P.Period)
			case k < 19:
				w.Teleport(id, geom.V(b.Min.X+rng.Float64()*b.W(), b.Min.Y+rng.Float64()*b.H()))
			default:
				if w.AliveCount() > len(w.Sensors)/2 {
					w.Kill(id)
					return
				}
			}
			// Mostly at period boundaries, sometimes mid-step.
			next := w.P.Period
			if rng.IntN(4) == 0 {
				next *= 0.2 + 0.6*rng.Float64()
			}
			w.E.Schedule(next, act)
		}
		w.E.ScheduleAt(w.PeriodStart(id, 0), act)
	}
}

// TestNeighborsWithinMatchesBrute checks the padded grid query against
// an O(N) scan of the live sensors at many instants of randomly moving,
// teleporting and dying worlds with jittered periods: the same IDs, each
// once, with their exact current positions, for radii below, at and
// above the index's cell size. It also checks the invariant the query's
// 2·MaxStep pad rests on: every live sensor's indexed position is within
// MaxStep of its current one, and dead sensors are not indexed. At each
// instant, checkRepeats probes the same-instant memo, and once warm a
// repeated query and a fresh scan allocate nothing.
func TestNeighborsWithinMatchesBrute(t *testing.T) {
	instants := 0
	var stats repeatStats
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewPCG(1407, uint64(trial)))
		f := field.MustNew(geom.R(0, 0, 300, 240), nil)
		p := DefaultParams()
		p.N = 80
		p.Seed = uint64(trial + 1)
		p.PhaseJitter = 0.5
		p.InitRegion = f.Bounds()
		w, err := NewWorld(f, p)
		if err != nil {
			t.Fatal(err)
		}
		randomMotion(w, rng)
		radii := []float64{p.Rc, 0.5 * p.Rc, 2 * p.Rs}
		for k := 0; k < 25; k++ {
			w.E.RunUntil(w.Now() + 0.1 + 1.9*rng.Float64())
			instants++
			now := w.Now()
			for id := range w.Sensors {
				q, indexed := w.idx.Position(id)
				if w.Sensors[id].Failed {
					if indexed {
						t.Fatalf("trial %d t=%v: dead sensor %d still indexed", trial, now, id)
					}
					continue
				}
				if !indexed {
					t.Fatalf("trial %d t=%v: live sensor %d not indexed", trial, now, id)
				}
				if d := q.Dist(w.Pos(id)); d > p.MaxStep()+1e-6 {
					t.Fatalf("trial %d t=%v: sensor %d is %v from its indexed position, over MaxStep %v",
						trial, now, id, d, p.MaxStep())
				}
				for _, r := range radii {
					checkQuery(t, w, id, r)
					if ids, want := w.Neighbors(id, r), bruteNeighbors(w, id, r); !slices.Equal(ids, want) {
						t.Fatalf("trial %d t=%v: Neighbors(%d, %v) = %v, brute %v", trial, now, id, r, ids, want)
					}
				}
			}
			checkRepeats(t, w, rng, radii, &stats)
		}
		if w.AliveCount() == p.N {
			t.Fatalf("trial %d: no sensor died; the test must cover dead sensors", trial)
		}
		id := 0
		for w.Sensors[id].Failed {
			id++
		}
		if allocs := testing.AllocsPerRun(100, func() { w.NeighborsWithin(id, p.Rc) }); allocs != 0 {
			t.Errorf("trial %d: a repeated query allocates %v times, want 0", trial, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			w.NeighborsWithin(id, p.Rc)
			w.NeighborsWithin(id, 2*p.Rs)
		}); allocs != 0 {
			t.Errorf("trial %d: alternating radii allocate %v times per pair, want 0", trial, allocs)
		}
	}
	if instants < 50 {
		t.Fatalf("checked %d instants, want >= 50", instants)
	}
	for op, n := range stats.changed {
		if n == 0 && op != opStay {
			t.Errorf("no %s between two identical queries changed the answer; the memo's counter is untested there", opNames[op])
		}
	}
}

// checkQuery checks NeighborsWithin(id, r) against the O(N) scan at the
// world's current instant: the same IDs, each once, with their current
// positions.
func checkQuery(t *testing.T, w *World, id int, r float64) {
	t.Helper()
	now := w.Now()
	var got []int
	for _, n := range w.NeighborsWithin(id, r) {
		if n.Pos != w.PosAt(n.ID, now) {
			t.Fatalf("t=%v: neighbor %d of %d at %v, current position %v", now, n.ID, id, n.Pos, w.PosAt(n.ID, now))
		}
		got = append(got, n.ID)
	}
	slices.Sort(got)
	if want := bruteNeighbors(w, id, r); !slices.Equal(got, want) || len(slices.Compact(got)) != len(want) {
		t.Fatalf("t=%v: NeighborsWithin(%d, %v) = %v, brute %v", now, id, r, got, want)
	}
}

// TestNeighborsWithinMemoScope: the memo answers only within one instant
// of one run. A world rebuilt from the pool, whose first question repeats
// the previous run's last one, and a clock that moved mid-step with no
// write in between both get a fresh scan.
func TestNeighborsWithinMemoScope(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 300, 240), nil)
	p := DefaultParams()
	p.N = 60
	p.InitRegion = f.Bounds()
	for seed := uint64(1); seed <= 4; seed++ {
		p.Seed = seed
		w, err := NewWorld(f, p)
		if err != nil {
			t.Fatal(err)
		}
		checkQuery(t, w, 0, p.Rc)
		rng := rand.New(rand.NewPCG(seed, 1408))
		for id := range w.Sensors {
			from := w.Pos(id)
			to := from.Add(geom.V(rng.NormFloat64(), rng.NormFloat64()).Unit().Scale(p.MaxStep())).Clamp(f.Bounds())
			w.BeginStep(id, to, from.Dist(to), p.Period)
		}
		checkQuery(t, w, 0, p.Rc)
		w.E.RunUntil(p.Period / 2)
		checkQuery(t, w, 0, p.Rc)
		// Leave a memo keyed like the next world's first question.
		w.memoID, w.memoR, w.memoNow, w.memoWrites = 0, p.Rc, 0, 0
		w.Release()
	}
}

// Writes applied between two identical queries by checkRepeats.
const (
	opKill = iota
	opTeleport
	opBeginStep
	opStay
	numOps
)

var opNames = [numOps]string{"Kill", "Teleport", "BeginStep", "Stay"}

// repeatStats counts, per write, the repeats whose fresh answer differs
// from the answer before the write: in membership for Kill and Teleport,
// in order for BeginStep, whose Insert moves the sensor to the end of its
// cell's slots. A Stay cannot change an answer at the same instant (the
// sensor's current position is the one it stays at), so its repeats
// check only that the memo stays correct.
type repeatStats struct{ changed [numOps]int }

// checkRepeats probes the same-instant memo of NeighborsWithin at the
// world's current instant: for a few live sensors it asks one question,
// a second radius, and the first again, each checked against the O(N)
// scan; then it applies a Kill, Teleport, BeginStep or Stay to a sensor
// in or near the answer and asks the first question again, which must
// equal a fresh scan (IDs, order and positions) with the memo cleared.
func checkRepeats(t *testing.T, w *World, rng *rand.Rand, radii []float64, stats *repeatStats) {
	t.Helper()
	now := w.Now()
	fresh := func(id int, r float64) []Neighbor {
		w.memoID = -1
		return slices.Clone(w.NeighborsWithin(id, r))
	}
	for op := range numOps {
		id := rng.IntN(len(w.Sensors))
		for w.Sensors[id].Failed {
			id = (id + 1) % len(w.Sensors)
		}
		r := radii[rng.IntN(len(radii))]
		other := radii[rng.IntN(len(radii))]
		before := slices.Clone(w.NeighborsWithin(id, r))
		for _, q := range []float64{other, r, r} {
			checkQuery(t, w, id, q)
		}
		if got := w.NeighborsWithin(id, r); !slices.Equal(got, before) {
			t.Fatalf("t=%v: repeated NeighborsWithin(%d, %v) = %v, first answer %v", now, id, r, got, before)
		}
		// The written sensor: an answer member, or a live sensor just
		// outside the answer when it is empty.
		var target int
		if len(before) > 0 {
			target = before[rng.IntN(len(before))].ID
		} else {
			target = (id + 1 + rng.IntN(len(w.Sensors)-1)) % len(w.Sensors)
			if w.Sensors[target].Failed {
				continue
			}
		}
		center := w.Pos(id)
		switch op {
		case opKill:
			if w.AliveCount() <= len(w.Sensors)/2 {
				continue
			}
			w.Kill(target)
		case opTeleport:
			// Members leave the answer; an outsider joins it.
			if len(before) > 0 {
				w.Teleport(target, center.Add(geom.V(r+1, 0)).Clamp(w.F.Bounds()))
			} else {
				w.Teleport(target, center.Add(geom.V(r/2, 0)).Clamp(w.F.Bounds()))
			}
		case opBeginStep:
			from := w.Pos(target)
			to := from.Add(geom.V(rng.NormFloat64(), rng.NormFloat64()).Unit().Scale(w.P.MaxStep() / 2)).Clamp(w.F.Bounds())
			w.BeginStep(target, to, from.Dist(to), w.P.Period)
		case opStay:
			w.Stay(target, w.P.Period)
		}
		got := slices.Clone(w.NeighborsWithin(id, r))
		want := fresh(id, r)
		if !slices.Equal(got, want) {
			t.Fatalf("t=%v: NeighborsWithin(%d, %v) after %s(%d) = %v, fresh scan %v",
				now, id, r, opNames[op], target, got, want)
		}
		checkQuery(t, w, id, r)
		if !slices.Equal(want, before) {
			stats.changed[op]++
		}
	}
}

// TestPhysicallyStranded: killing a mid-chain sensor strands the chain
// beyond it, a never-connected sensor is not reported, and after warm-up
// the check allocates nothing.
func TestPhysicallyStranded(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 400, 200), nil)
	p := testParams()
	p.N = 5
	w, err := NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	// A chain from the base station (the origin) with 50 m hops, and one
	// sensor out of everyone's reach.
	for i, x := range []float64{10, 60, 110, 160, 350} {
		w.Teleport(i, geom.V(x, 10))
	}
	w.FloodFromBase(p.Rc)
	if got := w.PhysicallyStranded(p.Rc); len(got) != 0 {
		t.Fatalf("intact chain: stranded %v, want none", got)
	}
	w.Kill(1)
	if got := w.PhysicallyStranded(p.Rc); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("after killing sensor 1: stranded %v, want [2 3]", got)
	}
	if allocs := testing.AllocsPerRun(50, func() { w.PhysicallyStranded(p.Rc) }); allocs != 0 {
		t.Errorf("PhysicallyStranded allocates %v times per call after warm-up, want 0", allocs)
	}
}

// BenchmarkNeighborsWithin measures the padded neighbor query: 240
// sensors on the paper's 500 m × 500 m region, half of them mid-step,
// one query at rc per sensor per op.
func BenchmarkNeighborsWithin(b *testing.B) {
	f := field.MustNew(geom.R(0, 0, 500, 500), nil)
	p := DefaultParams()
	w, err := NewWorld(f, p)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(14, 240))
	for id := 0; id < p.N; id += 2 {
		from := w.Pos(id)
		to := from.Add(geom.V(rng.Float64()*2-1, rng.Float64()*2-1).Scale(p.MaxStep() / 2)).Clamp(f.Bounds())
		w.BeginStep(id, to, from.Dist(to), p.Period)
	}
	w.E.RunUntil(p.Period / 2)
	// One untimed pass grows the world's query scratch, as the first
	// periods of a run do.
	for id := 0; id < p.N; id++ {
		w.NeighborsWithin(id, p.Rc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := 0; id < p.N; id++ {
			w.NeighborsWithin(id, p.Rc)
		}
	}
}
