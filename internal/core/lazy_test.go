package core

import (
	"maps"
	"math"
	"math/rand/v2"
	"testing"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// refLazyStep is LazyCoordinator.Step as it was before the step read the
// kept rc answer: two grid-order scans through NeighborsWithin (the
// connect radius for the join, rc for the path parent), Dist for every
// distance, and argmins that keep the first strict minimum in grid
// order. It is the oracle the tests below hold Step to.
func refLazyStep(lc *LazyCoordinator, id int) LazyResult {
	w := lc.w
	T := w.P.Period
	w.Msg.Count(MsgBeacon, 1)
	if w.NearBase(id, lc.cfg.ConnectRadius) {
		w.Stay(id, T)
		return LazyResult{Outcome: LazyJoinedBase}
	}
	joined := NoParent
	best := math.Inf(1)
	pos := w.Pos(id)
	now := w.Now()
	for _, n := range w.NeighborsWithin(id, lc.cfg.ConnectRadius) {
		if !w.Sensors[n.ID].Connected {
			continue
		}
		if !w.PosAt(n.ID, max(w.StepEndTime(n.ID), now)).WithinDist(pos, lc.cfg.ConnectRadius) {
			continue
		}
		if d := n.Pos.Dist(pos); d < best {
			best = d
			joined = n.ID
		}
	}
	if joined != NoParent {
		w.Stay(id, T)
		return LazyResult{Outcome: LazyJoined, Parent: joined}
	}
	walker := lc.walkers[id]
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
	target := walker.Target()
	myDist := pos.Dist(target)
	cand := NoParent
	candDist := math.Inf(1)
	for _, n := range w.NeighborsWithin(id, w.P.Rc) {
		if w.Sensors[n.ID].Connected || lc.rejected[id][n.ID] {
			continue
		}
		if n.Pos.Dist(target) >= myDist-1e-9 {
			continue
		}
		if d := n.Pos.Dist(pos); d < candDist {
			candDist = d
			cand = n.ID
		}
	}
	if cand != NoParent && lc.pathParent[cand] == id {
		cand = NoParent
	}
	if cand != NoParent {
		lc.pathParent[id] = cand
		lc.stalled[id]++
		if lc.stalled[id] >= lc.cfg.LoopCheckAfter && lc.loopDetected(id) {
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
	lc.pathParent[id] = NoParent
	lc.stalled[id] = 0
	moved := walker.Advance(w.P.MaxStep())
	w.BeginStep(id, walker.Pos(), moved, T)
	if walker.Stuck() {
		return LazyResult{Outcome: LazyStuck}
	}
	return LazyResult{Outcome: LazyMoved}
}

// lazyRecord is what one lazy step decided and left behind.
type lazyRecord struct {
	t          float64
	id         int
	res        LazyResult
	pathParent int
	stalled    int
	rejected   int
	msgs       MsgStats
	to         geom.Vec
	stepT1     float64
}

func recordStep(lc *LazyCoordinator, id int, res LazyResult) lazyRecord {
	w := lc.w
	return lazyRecord{
		t: w.Now(), id: id, res: res,
		pathParent: lc.pathParent[id], stalled: lc.stalled[id], rejected: len(lc.rejected[id]),
		msgs: *w.Msg, to: w.stepTo[id], stepT1: w.stepT1[id],
	}
}

// lazyTwin is one world built twice from the same seed and placement:
// a is stepped by LazyCoordinator.Step, b by refLazyStep.
type lazyTwin struct {
	wa, wb *World
	a, b   *LazyCoordinator
}

// newLazyTwin builds the twin worlds. place positions and flags the
// sensors; then each sensor gets a direct walker from its position to
// target(id).
func newLazyTwin(t *testing.T, f *field.Field, p Params, cfg LazyConfig, place func(w *World), target func(id int) geom.Vec) *lazyTwin {
	t.Helper()
	build := func() (*World, *LazyCoordinator) {
		w, err := NewWorld(f, p)
		if err != nil {
			t.Fatal(err)
		}
		place(w)
		walkers := make([]Walker, p.N)
		for i := range walkers {
			walkers[i] = NewDirectWalker(f, w.Pos(i), target(i))
		}
		return w, NewLazyCoordinator(w, walkers, cfg)
	}
	tw := &lazyTwin{}
	tw.wa, tw.a = build()
	tw.wb, tw.b = build()
	return tw
}

// step runs sensor id's lazy step in both worlds and fails unless they
// agree on the outcome, parent, path parent, stall count, rejections,
// message counts and the committed step.
func (tw *lazyTwin) step(t *testing.T, id int) LazyResult {
	t.Helper()
	ra := recordStep(tw.a, id, tw.a.Step(id))
	rb := recordStep(tw.b, id, refLazyStep(tw.b, id))
	if ra != rb || !maps.Equal(tw.a.rejected[id], tw.b.rejected[id]) {
		t.Fatalf("t=%v: sensor %d: Step %+v, reference %+v", tw.wa.Now(), id, ra, rb)
	}
	return ra.res
}

// TestLazyStepMatchesReference runs seeded worlds in which a connected
// front wanders near the base while disconnected walkers head for it,
// form waiting chains behind each other, join, and have path parents
// rejected (by the loop probe, by injected loops and directly). Sensors
// die and connected ones teleport now and then. Connect radii are rc,
// below rc, and above it (which selects rc). The same events drive a
// world stepped by Step and one stepped by refLazyStep; every step must
// decide the same, and the runs must end in the same layout and tree.
func TestLazyStepMatchesReference(t *testing.T) {
	var outcomes [LazyStuck + 1]int
	rejected, fallbacks := 0, 0
	for _, variant := range []struct {
		crFrac   float64
		disabled bool
	}{{1, false}, {0.55, false}, {1, true}, {2, false}} {
		for seed := uint64(1); seed <= 3; seed++ {
			f := field.MustNew(geom.R(0, 0, 420, 420), nil)
			p := DefaultParams()
			p.N = 90
			p.Seed = seed
			p.PhaseJitter = 0.5
			p.InitRegion = f.Bounds()
			cfg := LazyConfig{ConnectRadius: variant.crFrac * p.Rc, LoopCheckAfter: 2, Disabled: variant.disabled}
			// A band of sensors near the base forms the connected front;
			// the few inside it join the base.
			tw := newLazyTwin(t, f, p, cfg, func(w *World) {
				for i := range p.N {
					d := w.Pos(i).X + w.Pos(i).Y
					w.Sensors[i].Connected = d >= 80 && d < 220
				}
			}, func(int) geom.Vec { return f.Reference() })
			var logs [2][]lazyRecord
			for side, w := range []*World{tw.wa, tw.wb} {
				lc := []*LazyCoordinator{tw.a, tw.b}[side]
				step := lc.Step
				if side == 1 {
					step = func(id int) LazyResult { return refLazyStep(lc, id) }
				}
				lazyMotion(w, lc, rand.New(rand.NewPCG(seed, 18)), step, &logs[side])
			}
			for k := 0; k < 200; k++ {
				until := tw.wa.Now() + 0.4 + 0.3*float64(k%3)
				tw.wa.E.RunUntil(until)
				tw.wb.E.RunUntil(until)
				if len(logs[0]) != len(logs[1]) {
					t.Fatalf("seed %d: %d steps vs %d reference steps by t=%v", seed, len(logs[0]), len(logs[1]), until)
				}
				for i := range logs[0] {
					if logs[0][i] != logs[1][i] {
						t.Fatalf("seed %d cr %v: step %d: %+v, reference %+v", seed, cfg.ConnectRadius, i, logs[0][i], logs[1][i])
					}
					outcomes[logs[0][i].res.Outcome]++
				}
				logs[0], logs[1] = logs[0][:0], logs[1][:0]
			}
			for i := range p.N {
				if tw.wa.Pos(i) != tw.wb.Pos(i) || tw.wa.Tree.Parent(i) != tw.wb.Tree.Parent(i) || tw.wa.Sensors[i] != tw.wb.Sensors[i] {
					t.Fatalf("seed %d: sensor %d ends differently: %v parent %d vs %v parent %d",
						seed, i, tw.wa.Pos(i), tw.wa.Tree.Parent(i), tw.wb.Pos(i), tw.wb.Tree.Parent(i))
				}
				rejected += len(tw.a.rejected[i])
			}
			fallbacks += tw.a.fallbacks
		}
	}
	t.Logf("outcomes moved/waiting/joined/base/stuck %v; %d rejected path parents; %d grid-order fallbacks", outcomes[1:], rejected, fallbacks)
	if outcomes[LazyMoved] == 0 || outcomes[LazyWaiting] == 0 || outcomes[LazyJoined] == 0 || outcomes[LazyJoinedBase] == 0 {
		t.Errorf("outcomes %v: want moves, waits, joins and base joins", outcomes[1:])
	}
	if rejected == 0 {
		t.Error("no path parent was rejected")
	}
}

// lazyMotion schedules every sensor's period event: a disconnected
// sensor takes a lazy step through step (joining the tree when it
// connects) and logs it; a connected one wanders, mostly by short steps.
// Now and then an event seeds a path-parent loop, rejects the sensor's
// path parent, kills a sensor or teleports a connected one. rng makes
// every choice, so two worlds driven from equal seeds see equal events
// as long as their steps decide alike.
func lazyMotion(w *World, lc *LazyCoordinator, rng *rand.Rand, step func(int) LazyResult, log *[]lazyRecord) {
	b := w.F.Bounds()
	for i := range w.Sensors {
		id := i
		var act func()
		act = func() {
			if w.Sensors[id].Failed {
				return
			}
			if w.Sensors[id].Connected {
				if rng.IntN(3) > 0 {
					from := w.Pos(id)
					to := from.Add(geom.V(rng.NormFloat64(), rng.NormFloat64()).Unit().Scale(rng.Float64() * w.P.MaxStep())).Clamp(b)
					w.BeginStep(id, to, from.Dist(to), w.P.Period)
				} else {
					w.Stay(id, w.P.Period)
				}
			} else {
				res := step(id)
				switch res.Outcome {
				case LazyJoined:
					w.Sensors[id].Connected = true
					w.Tree.SetParent(id, res.Parent)
				case LazyJoinedBase:
					w.Sensors[id].Connected = true
					w.Tree.SetParent(id, BaseParent)
				}
				*log = append(*log, recordStep(lc, id, res))
			}
			switch k := rng.IntN(120); {
			case k < 3:
				lc.SetPathParentForTest(rng.IntN(len(w.Sensors)), id)
			case k < 5:
				if pp := lc.pathParent[id]; pp != NoParent {
					if lc.rejected[id] == nil {
						lc.rejected[id] = make(map[int]bool)
					}
					lc.rejected[id][pp] = true
				}
			case k < 6:
				if v := rng.IntN(len(w.Sensors)); v != id && w.AliveCount() > len(w.Sensors)*3/4 {
					w.Kill(v)
				}
			case k < 7:
				if v := rng.IntN(len(w.Sensors)); w.Sensors[v].Connected && !w.Sensors[v].Failed {
					w.Teleport(v, geom.V(b.Min.X+rng.Float64()*b.W()/3, b.Min.Y+rng.Float64()*b.H()/3))
				}
			}
			w.E.Schedule(w.P.Period, act)
		}
		w.E.ScheduleAt(w.PeriodStart(id, 0), act)
	}
}

// TestLazyStepExactTies places two candidates at equal Dist from the
// walker — mirror images across the walker's position or across its
// line to the target — so the argmin's winner depends on visit order,
// with the lower ID visited second in grid order (or first, the
// control). In the "hypot" cases one image is nudged off the circle so
// that Dist still ties but squared distances do not. Step must fall back
// to the grid-order scan and pick what refLazyStep picks, for the join
// (at connect radii rc and below) and for the path parent. Near ties a
// few ulps apart must agree too.
func TestLazyStepExactTies(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 300, 300), nil)
	P := geom.V(150, 150)
	target := geom.V(0, 150)
	fallbacks, disagreements := 0, 0
	for _, join := range []bool{true, false} {
		for _, crFrac := range []float64{1, 0.55} {
			for _, lowFirst := range []bool{false, true} {
				for _, nudge := range []string{"exact", "hypot", "+1 ulp", "-1 ulp", "+3 ulp"} {
					p := DefaultParams()
					p.N = 4
					p.PhaseJitter = 0
					cfg := LazyConfig{ConnectRadius: crFrac * p.Rc}
					// Sensors 1 and 2 mirror each other: across P for a
					// join, across the walker's line to the target for a
					// path parent.
					a, b := P.Add(geom.V(20, 0)), P.Sub(geom.V(20, 0))
					if !join {
						a, b = P.Add(geom.V(-10, 15)), P.Add(geom.V(-10, -15))
					}
					tie := nudge == "exact" || nudge == "hypot"
					switch nudge {
					case "hypot":
						b = hypotTwin(t, P, b)
					case "+1 ulp", "-1 ulp", "+3 ulp":
						dir := math.Inf(1)
						if nudge[0] == '-' {
							dir = -dir
						}
						for range int(nudge[1] - '0') {
							a.Y = math.Nextafter(a.Y, dir)
						}
					}
					tw := newLazyTwin(t, f, p, cfg, func(w *World) {
						w.Teleport(0, P)
						w.Teleport(3, geom.V(290, 10))
						// Teleport order sets the order within the shared
						// grid cell: the one teleported first is visited
						// first.
						if lowFirst {
							w.Teleport(1, a)
							w.Teleport(2, b)
						} else {
							w.Teleport(2, b)
							w.Teleport(1, a)
						}
						w.Sensors[1].Connected, w.Sensors[2].Connected = join, join
					}, func(int) geom.Vec { return target })
					res := tw.step(t, 0)
					picked := res.Parent
					if !join {
						picked = tw.a.PathParent(0)
					}
					if (join && res.Outcome != LazyJoined) || (!join && res.Outcome != LazyWaiting) {
						t.Fatalf("join=%v cr=%v: outcome %v, want a join or a wait", join, cfg.ConnectRadius, res.Outcome)
					}
					if tie && tw.a.fallbacks != 1 {
						t.Errorf("join=%v cr=%v lowFirst=%v %s: the tie took %d fallbacks, want 1", join, cfg.ConnectRadius, lowFirst, nudge, tw.a.fallbacks)
					}
					fallbacks += tw.a.fallbacks
					if tie && picked != 1 {
						disagreements++ // ID order, or squared distances, would have picked 1
					}
				}
			}
		}
	}
	if disagreements == 0 {
		t.Error("no tie where grid order and ID order disagree")
	}
	t.Logf("%d fallbacks; %d ties where ID order or squared distances would have picked differently", fallbacks, disagreements)
}

// hypotTwin nudges b perpendicular to c→b until its Dist from c is
// unchanged but its squared distance is one rounding step larger: a tie
// for Dist that squared distances alone would break toward the other
// image.
func hypotTwin(t *testing.T, c, b geom.Vec) geom.Vec {
	t.Helper()
	u := b.Sub(c).Unit().Perp()
	for k := 1; k <= 1000; k++ {
		q := b.Add(u.Scale(float64(k) * 1e-9))
		if q.Dist(c) == b.Dist(c) && q.Dist2(c) > b.Dist2(c) {
			return q
		}
	}
	t.Fatalf("no nudge of %v keeps its Dist from %v and changes its squared distance", b, c)
	return b
}

// TestLazyStepAheadBoundary puts a lone path-parent candidate within a
// few ulps of the "strictly closer to the target" threshold, myDist −
// 1e-9: on the walker's line to the target (where Dist is a coordinate
// difference, so the offsets are exact) and at random bearings from the
// target. Step's squared test must agree with refLazyStep's Dist test,
// and both sides of the threshold must occur.
func TestLazyStepAheadBoundary(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 300, 300), nil)
	target := geom.V(0, 150)
	rng := rand.New(rand.NewPCG(18, 1))
	var sides [2]int
	for trial := 0; trial < 200; trial++ {
		pos := geom.V(100, 150)
		ahead := pos.Dist(target) - 1e-9
		dir := geom.V(1, 0)
		if trial%2 == 1 {
			pos = target.Add(geom.V(0.2+rng.Float64(), rng.Float64()-0.5).Unit().Scale(60 + 60*rng.Float64()))
			ahead = pos.Dist(target) - 1e-9
			dir = pos.Sub(target).Unit().Rotate(0.6 * (rng.Float64() - 0.5))
		}
		r := ahead
		for k := rng.IntN(7) - 3; k != 0; k -= int(math.Copysign(1, float64(k))) {
			r = math.Nextafter(r, math.Copysign(math.Inf(1), float64(k)))
		}
		cand := target.Add(dir.Scale(r))
		p := DefaultParams()
		p.N = 2
		p.PhaseJitter = 0
		tw := newLazyTwin(t, f, p, LazyConfig{}, func(w *World) {
			w.Teleport(0, pos)
			w.Teleport(1, cand)
		}, func(int) geom.Vec { return target })
		if tw.step(t, 0).Outcome == LazyWaiting {
			sides[0]++
		} else {
			sides[1]++
		}
	}
	t.Logf("%d waits, %d moves", sides[0], sides[1])
	if sides[0] == 0 || sides[1] == 0 {
		t.Errorf("candidates fell on one side of the threshold only: %d waits, %d moves", sides[0], sides[1])
	}
}

// BenchmarkLazyWait measures lazy steps of sensors that wait. On a
// 500 m × 500 m field with jittered phases, 160 disconnected walkers head
// for the base at the corner and queue behind 40 disconnected sensors
// that stand still on an arc 250 m out, while a front of 40 connected
// sensors wanders a band 150–210 m out, its steps crossing the queued
// walkers' circles now and then. Each op advances one of 8 seeded
// layouts (cycled, so no one layout's answers stay warm in the cache
// hierarchy) by one period: 160 lazy steps, nearly all waits and the
// rest joins, plus the front's steps. An untimed warm-up forms the
// queues first.
func BenchmarkLazyWait(b *testing.B) {
	const layouts, front, blockers = 8, 40, 40
	f := field.MustNew(geom.R(0, 0, 500, 500), nil)
	worlds := make([]*World, layouts)
	var outcomes [LazyStuck + 1]int
	for k := range worlds {
		p := DefaultParams()
		p.Seed = uint64(k + 1)
		w, err := NewWorld(f, p)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(18, uint64(k)))
		// polar draws a point r0..r1 m from the base, in the field.
		polar := func(r0, r1 float64) geom.Vec {
			r, th := r0+(r1-r0)*rng.Float64(), (0.02+0.96*rng.Float64())*math.Pi/2
			return geom.V(r*math.Cos(th), r*math.Sin(th))
		}
		walkers := make([]Walker, p.N)
		for i := range p.N {
			var pos geom.Vec
			switch {
			case i < front:
				pos = polar(150, 210)
				w.Sensors[i].Connected = true
			case i < front+blockers:
				pos = polar(248, 252)
			default:
				pos = polar(260, 360)
			}
			w.Teleport(i, pos)
			walkers[i] = NewDirectWalker(f, pos, f.Reference())
		}
		lc := NewLazyCoordinator(w, walkers, LazyConfig{})
		for i := range p.N {
			id := i
			var act func()
			act = func() {
				switch {
				case id < front:
					from := w.Pos(id)
					to := from.Add(geom.V(rng.NormFloat64(), rng.NormFloat64()).Unit().Scale(p.MaxStep()))
					if d := to.Len(); d < 150 || d > 210 {
						to = from
					}
					w.BeginStep(id, to, from.Dist(to), p.Period)
				case id < front+blockers:
					w.Stay(id, p.Period)
				default:
					outcomes[lc.Step(id).Outcome]++
				}
				w.E.Schedule(p.Period, act)
			}
			w.E.ScheduleAt(w.PeriodStart(id, 0), act)
		}
		worlds[k] = w
	}
	for _, w := range worlds {
		w.E.RunUntil(80)
	}
	clear(outcomes[:])
	for _, w := range worlds {
		w.E.RunUntil(100)
	}
	if outcomes[LazyWaiting] < 9*outcomes[LazyMoved] {
		b.Fatalf("warm layouts do not mostly wait: moved/waiting/joined/base/stuck %v", outcomes[1:])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := worlds[i%layouts]
		w.E.RunUntil(w.Now() + w.P.Period)
	}
}
