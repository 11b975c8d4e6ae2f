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
// MaxStep of its current one, and dead sensors are not indexed.
func TestNeighborsWithinMatchesBrute(t *testing.T) {
	instants := 0
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
					want := bruteNeighbors(w, id, r)
					var got []int
					for _, n := range w.NeighborsWithin(id, r) {
						if n.Pos != w.PosAt(n.ID, now) {
							t.Fatalf("trial %d t=%v: neighbor %d of %d at %v, current position %v",
								trial, now, n.ID, id, n.Pos, w.PosAt(n.ID, now))
						}
						got = append(got, n.ID)
					}
					slices.Sort(got)
					if !slices.Equal(got, want) || len(slices.Compact(got)) != len(want) {
						t.Fatalf("trial %d t=%v: NeighborsWithin(%d, %v) = %v, brute %v", trial, now, id, r, got, want)
					}
					if ids := w.Neighbors(id, r); !slices.Equal(ids, want) {
						t.Fatalf("trial %d t=%v: Neighbors(%d, %v) = %v, brute %v", trial, now, id, r, ids, want)
					}
				}
			}
		}
		if w.AliveCount() == p.N {
			t.Fatalf("trial %d: no sensor died; the test must cover dead sensors", trial)
		}
	}
	if instants < 50 {
		t.Fatalf("checked %d instants, want >= 50", instants)
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
