package cpvf

import (
	"math"
	"math/rand/v2"
	"testing"

	"mobisense/internal/core"
	"mobisense/internal/coverage"
	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// smallParams returns a fast test configuration: 40 sensors clustered in
// the corner of a 400x400 field.
func smallParams() core.Params {
	p := core.DefaultParams()
	p.N = 40
	p.Rc = 50
	p.Rs = 30
	p.Duration = 200
	p.InitRegion = geom.R(0, 0, 200, 200)
	p.CoverageRes = 4
	return p
}

func runScheme(t *testing.T, f *field.Field, p core.Params, cfg Config) *core.World {
	t.Helper()
	w, err := core.NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	New(cfg).Attach(w)
	w.E.RunUntil(p.Duration)
	return w
}

func smallField(t *testing.T) *field.Field {
	t.Helper()
	return field.MustNew(geom.R(0, 0, 400, 400), nil)
}

func TestCPVFGuaranteesConnectivity(t *testing.T) {
	w := runScheme(t, smallField(t), smallParams(), DefaultConfig())
	if got := w.ConnectedCount(); got != w.P.N {
		t.Fatalf("connected sensors = %d / %d", got, w.P.N)
	}
	if !core.AllConnected(w.Layout(), w.F.Reference(), w.P.Rc) {
		t.Fatal("final unit-disk network is not connected to the base")
	}
}

func TestCPVFTreeInvariants(t *testing.T) {
	w := runScheme(t, smallField(t), smallParams(), DefaultConfig())
	for i, s := range w.Sensors {
		if !s.Connected {
			t.Fatalf("sensor %d not connected", i)
		}
		if !w.Tree.InTree(i) {
			t.Errorf("sensor %d connected but not rooted in tree", i)
		}
		// Every tree link must respect the communication range.
		if p := w.Tree.Parent(i); p >= 0 {
			if d := w.Pos(i).Dist(w.Pos(p)); d > w.P.Rc+1e-6 {
				t.Errorf("sensor %d parent link %.1f m exceeds rc", i, d)
			}
		} else if p == core.BaseParent {
			if d := w.Pos(i).Dist(w.F.Reference()); d > w.P.Rc+1e-6 {
				t.Errorf("sensor %d base link %.1f m exceeds rc", i, d)
			}
		}
	}
}

func TestCPVFImprovesCoverage(t *testing.T) {
	f := smallField(t)
	p := smallParams()
	w, err := core.NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	est := coverage.NewEstimator(f, p.CoverageRes)
	before := est.Fraction(w.Layout(), p.Rs)
	New(DefaultConfig()).Attach(w)
	w.E.RunUntil(p.Duration)
	after := est.Fraction(w.Layout(), p.Rs)
	if after <= before {
		t.Errorf("coverage did not improve: %.3f -> %.3f", before, after)
	}
	// 40 sensors with rs=30 could cover up to 40*pi*900 ≈ 113k of the 160k
	// field; the virtual forces should realize a decent chunk of it.
	if after < 0.35 {
		t.Errorf("final coverage %.3f suspiciously low", after)
	}
}

func TestCPVFSmallRcProducesWorseCoverage(t *testing.T) {
	// The paper's central CPVF finding (Fig 3): with rc well below rs the
	// sensors cluster and coverage collapses.
	f := smallField(t)
	large := smallParams()
	large.Rc = 60
	large.Rs = 40
	wLarge := runScheme(t, f, large, DefaultConfig())

	small := smallParams()
	small.Rc = 20
	small.Rs = 40
	wSmall := runScheme(t, f, small, DefaultConfig())

	est := coverage.NewEstimator(f, 4)
	covLarge := est.Fraction(wLarge.Layout(), large.Rs)
	covSmall := est.Fraction(wSmall.Layout(), small.Rs)
	if covSmall >= covLarge {
		t.Errorf("rc=20 coverage %.3f should be below rc=60 coverage %.3f", covSmall, covLarge)
	}
}

func TestCPVFSensorsStayInFreeSpace(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 400, 400),
		[]geom.Polygon{geom.R(150, 100, 250, 300).Polygon()})
	w := runScheme(t, f, smallParams(), DefaultConfig())
	for i := range w.Sensors {
		if pos := w.Pos(i); !f.Free(pos) {
			t.Errorf("sensor %d ended inside an obstacle at %v", i, pos)
		}
	}
}

func TestCPVFRespectsSpeedLimit(t *testing.T) {
	// Total traveled distance per sensor cannot exceed V * duration.
	p := smallParams()
	w := runScheme(t, smallField(t), p, DefaultConfig())
	bound := p.Speed * p.Duration
	for i, s := range w.Sensors {
		if s.Traveled > bound+1e-6 {
			t.Errorf("sensor %d traveled %.1f m > bound %.1f m", i, s.Traveled, bound)
		}
	}
}

func TestCPVFOscillationAvoidanceReducesDistance(t *testing.T) {
	f := smallField(t)
	p := smallParams()

	base := runScheme(t, f, p, DefaultConfig())

	oneStep := DefaultConfig()
	oneStep.Oscillation = OscOneStep
	oneStep.Delta = 2
	one := runScheme(t, f, p, oneStep)

	twoStep := DefaultConfig()
	twoStep.Oscillation = OscTwoStep
	twoStep.Delta = 2
	two := runScheme(t, f, p, twoStep)

	if one.AvgTraveled() >= base.AvgTraveled() {
		t.Errorf("one-step avoidance did not reduce distance: %.1f vs %.1f",
			one.AvgTraveled(), base.AvgTraveled())
	}
	if two.AvgTraveled() >= base.AvgTraveled() {
		t.Errorf("two-step avoidance did not reduce distance: %.1f vs %.1f",
			two.AvgTraveled(), base.AvgTraveled())
	}
}

func TestCPVFDeterministicRuns(t *testing.T) {
	f := smallField(t)
	p := smallParams()
	w1 := runScheme(t, f, p, DefaultConfig())
	w2 := runScheme(t, f, p, DefaultConfig())
	for i := range w1.Sensors {
		if !w1.Pos(i).Eq(w2.Pos(i)) {
			t.Fatalf("sensor %d diverged between identical runs", i)
		}
	}
	if w1.Msg.Total() != w2.Msg.Total() {
		t.Error("message counts diverged between identical runs")
	}
}

func TestCPVFSeedChangesLayout(t *testing.T) {
	f := smallField(t)
	p1 := smallParams()
	p2 := smallParams()
	p2.Seed = 99
	w1 := runScheme(t, f, p1, DefaultConfig())
	w2 := runScheme(t, f, p2, DefaultConfig())
	same := true
	for i := range w1.Sensors {
		if !w1.Pos(i).Eq(w2.Pos(i)) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical layouts")
	}
}

func TestCPVFParentChangeAblation(t *testing.T) {
	// Disabling parent changes must still preserve connectivity.
	cfg := DefaultConfig()
	cfg.AllowParentChange = false
	w := runScheme(t, smallField(t), smallParams(), cfg)
	if !core.AllConnected(w.Layout(), w.F.Reference(), w.P.Rc) {
		t.Fatal("no-parent-change run lost connectivity")
	}
}

func TestCPVFWithObstaclesStillConnected(t *testing.T) {
	// A wall with a narrow exit between the cluster and the open area.
	f := field.MustNew(geom.R(0, 0, 400, 400),
		[]geom.Polygon{geom.R(200, 30, 230, 400).Polygon()})
	w := runScheme(t, f, smallParams(), DefaultConfig())
	if !core.AllConnected(w.Layout(), w.F.Reference(), w.P.Rc) {
		t.Fatal("obstacle run lost connectivity")
	}
}

func TestAppendixALemma(t *testing.T) {
	// Appendix A: if dist(s(t), s'(t)) <= rc and dist(s(t'), s'(t')) <= rc
	// with both moving on straight lines during [t, t'], then the distance
	// never exceeds rc in between. Verify numerically over random motions:
	// the max pairwise distance during linear interpolation of two straight
	// movers is attained at an endpoint (convexity).
	rc := 50.0
	for trial := 0; trial < 500; trial++ {
		seed := uint64(trial)
		rnd := func(k uint64) float64 {
			// Cheap deterministic hash-based pseudo-random in [0,1).
			x := seed*2654435761 + k*40503
			x ^= x >> 13
			x = x * 2654435761 % 1000003
			return float64(x) / 1000003
		}
		a0 := geom.V(rnd(1)*100, rnd(2)*100)
		b0 := geom.V(rnd(3)*100, rnd(4)*100)
		a1 := a0.Add(geom.V(rnd(5)*4-2, rnd(6)*4-2))
		b1 := b0.Add(geom.V(rnd(7)*4-2, rnd(8)*4-2))
		if a0.Dist(b0) > rc || a1.Dist(b1) > rc {
			continue // premise violated; lemma says nothing
		}
		for k := 0; k <= 20; k++ {
			u := float64(k) / 20
			if a0.Lerp(a1, u).Dist(b0.Lerp(b1, u)) > rc+1e-9 {
				t.Fatalf("trial %d: intermediate distance exceeds rc at u=%v", trial, u)
			}
		}
	}
}

func TestCPVFConvergesEventually(t *testing.T) {
	// With oscillation avoidance the layout should stop changing well
	// before the horizon.
	p := smallParams()
	p.Duration = 300
	cfg := DefaultConfig()
	cfg.Oscillation = OscOneStep
	cfg.Delta = 2
	w := runScheme(t, smallField(t), p, cfg)
	if w.LastMoveTime() >= p.Duration {
		t.Logf("warning: still moving at horizon (last move %.0f)", w.LastMoveTime())
	}
	if math.IsNaN(w.AvgTraveled()) {
		t.Fatal("NaN traveled distance")
	}
}

// refMaxValidStep is maxValidStep as it was before each decision resolved
// its peers once: every candidate step re-reads each peer's t′, position
// and step fraction, and compares Dist against rc. It is the oracle for
// the step search.
func refMaxValidStep(c *Scheme, id int, pos, dir geom.Vec, desired float64, links []link) float64 {
	w := c.w
	limit := math.Min(desired, w.P.MaxStep())
	freeLimit := limit
	if hit, ok := w.F.FirstHit(geom.Seg(pos, pos.Add(dir.Scale(limit)))); ok {
		freeLimit = math.Max(0, hit.T*limit-0.1)
	}
	for k := 10; k >= 1; k-- {
		step := float64(k) / 10 * limit
		if step > freeLimit {
			continue
		}
		if refStepPreservesLinks(c, pos, dir, step, links) {
			return step
		}
	}
	return 0
}

func refStepPreservesLinks(c *Scheme, pos, dir geom.Vec, step float64, links []link) bool {
	w := c.w
	now := w.Now()
	T := w.P.Period
	rc := w.P.Rc
	end := pos.Add(dir.Scale(step))
	for _, l := range links {
		var peerT1 float64
		var peerAtT1 geom.Vec
		if l.isBase {
			peerT1 = now
			peerAtT1 = w.F.Reference()
		} else {
			peerT1 = math.Max(w.StepEndTime(l.id), now)
			peerAtT1 = w.PosAt(l.id, peerT1)
		}
		frac := (peerT1 - now) / T
		if frac > 1 {
			frac = 1
		}
		mine := pos.Add(dir.Scale(step * frac))
		if mine.Dist(peerAtT1) > rc {
			return false
		}
		if peerAtT1.Dist(end) > rc {
			return false
		}
	}
	return true
}

// TestMaxValidStepMatchesReference: the step search returns the same step
// as refMaxValidStep, bit for bit, on seeded decisions in a field with an
// obstacle. Peers are idle, mid-step (some with t′ past t + T) or the
// base station, decisions fall at jittered instants, and many peers sit
// within 1e-6 of rc (down to a few ulps) from the decider's position or
// from one candidate step's end, where Dist and a squared comparison
// part.
func TestMaxValidStepMatchesReference(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 300, 300), []geom.Polygon{geom.R(120, 40, 150, 260).Polygon()})
	p := smallParams()
	p.N = 30
	p.InitRegion = f.Bounds()
	rng := rand.New(rand.NewPCG(1417, 3))
	unit := func() geom.Vec { return geom.V(rng.NormFloat64(), rng.NormFloat64()).Unit() }
	var full, partial, zero, boundary int
	for trial := uint64(1); trial <= 4; trial++ {
		p.Seed = trial
		w, err := core.NewWorld(f, p)
		if err != nil {
			t.Fatal(err)
		}
		c := New(DefaultConfig())
		c.w = w
		for inst := 0; inst < 40; inst++ {
			for id := range w.Sensors {
				if rng.IntN(3) == 0 {
					from := w.Pos(id)
					to := from.Add(unit().Scale(rng.Float64() * p.MaxStep()))
					w.BeginStep(id, to, from.Dist(to), p.Period)
				}
			}
			w.E.RunUntil(w.Now() + rng.Float64()*p.Period)
			for range 25 {
				id := rng.IntN(p.N)
				pos := w.Pos(id)
				dir := unit()
				desired := rng.Float64() * 1.5 * p.MaxStep()
				var links []link
				if rng.IntN(4) == 0 {
					links = append(links, link{isBase: true})
				}
				for range rng.IntN(4) {
					if j := rng.IntN(p.N); j != id {
						links = append(links, link{id: j})
					}
				}
				if len(links) > 0 && !links[len(links)-1].isBase && rng.IntN(2) == 0 {
					// Put the last peer's t′ position on the boundary of
					// the decider's position or of a candidate's end.
					j := links[len(links)-1].id
					anchor := pos
					if rng.IntN(2) == 0 {
						k := float64(1 + rng.IntN(10))
						anchor = pos.Add(dir.Scale(k / 10 * min(desired, p.MaxStep())))
					}
					delta := []float64{0, 1e-14, 1e-12, 1e-9, 1e-6}[rng.IntN(5)]
					if rng.IntN(2) == 0 {
						delta = -delta
					}
					at := anchor.Add(unit().Scale(p.Rc + delta))
					if rng.IntN(2) == 0 {
						w.Teleport(j, at) // idle: t′ = t
					} else {
						// Mid-step, with t′ at t + T or beyond it.
						w.Teleport(j, at.Add(unit().Scale(p.MaxStep()/2)))
						w.BeginStep(j, at, p.MaxStep()/2, p.Period*float64(1+rng.IntN(2)))
					}
					boundary++
				}
				got := c.maxValidStep(id, pos, dir, desired, links)
				want := refMaxValidStep(c, id, pos, dir, desired, links)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d t=%v sensor %d: maxValidStep = %v, reference %v (links %v)",
						trial, w.Now(), id, got, want, links)
				}
				switch {
				case got == 0:
					zero++
				case got == min(desired, p.MaxStep()):
					full++
				default:
					partial++
				}
			}
		}
		w.Release()
	}
	if full == 0 || partial == 0 || zero == 0 || boundary < 500 {
		t.Fatalf("decisions: %d full, %d partial, %d zero steps and %d boundary peers; want each > 0 and >= 500 boundary peers",
			full, partial, zero, boundary)
	}
}
