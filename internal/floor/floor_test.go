package floor

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mobisense/internal/core"
	"mobisense/internal/coverage"
	"mobisense/internal/field"
	"mobisense/internal/geom"
)

func TestFloorsGeometry(t *testing.T) {
	fl := NewFloors(geom.R(0, 0, 1000, 1000), 40)
	if fl.Count() != 13 { // ceil(1000/80)
		t.Errorf("count = %d, want 13", fl.Count())
	}
	if fl.Height() != 80 {
		t.Errorf("height = %v", fl.Height())
	}
	if got := fl.LineY(0); got != 40 {
		t.Errorf("line 0 = %v", got)
	}
	if got := fl.LineY(3); got != 280 {
		t.Errorf("line 3 = %v", got)
	}
	if got := fl.InterLineY(0); got != 80 {
		t.Errorf("inter-line 0 = %v", got)
	}
	tests := []struct {
		y    float64
		want int
	}{
		{0, 0}, {79.9, 0}, {80, 1}, {500, 6}, {999, 12}, {-5, 0}, {2000, 12},
	}
	for _, tt := range tests {
		if got := fl.Index(tt.y); got != tt.want {
			t.Errorf("Index(%v) = %d, want %d", tt.y, got, tt.want)
		}
	}
	if got := fl.NearestLineY(75); got != 40 {
		t.Errorf("NearestLineY(75) = %v, want 40", got)
	}
	if got := fl.NearestLineY(85); got != 120 {
		t.Errorf("NearestLineY(85) = %v, want 120", got)
	}
}

func TestRegistryBasics(t *testing.T) {
	fl := NewFloors(geom.R(0, 0, 400, 400), 40)
	r := newRegistry(fl, field.MustNew(geom.R(0, 0, 400, 400), nil))
	r.addFixed(7, geom.V(100, 40))
	r.addFixed(3, geom.V(50, 45))
	if h := r.header(0); h != 3 {
		t.Errorf("header = %d, want 3 (smallest x)", h)
	}
	if !r.floorCovers(0, geom.V(60, 45), 40, noSkip) {
		t.Error("floor 0 should cover (60,45)")
	}
	if r.floorCovers(0, geom.V(60, 45), 40, skipSpec{id: 3}) {
		t.Error("excluding node 3 leaves (60,45) uncovered by node 7? distance is 40.3")
	}
	// Virtual node lifecycle.
	tok := r.addVirtual(geom.V(200, 40))
	if !r.floorCovers(0, geom.V(200, 40), 10, noSkip) {
		t.Error("virtual node should cover its EP")
	}
	if h := r.header(0); h != 3 {
		t.Error("virtual nodes must not become headers")
	}
	r.removeVirtual(tok)
	if r.floorCovers(0, geom.V(200, 40), 10, noSkip) {
		t.Error("virtual node not removed")
	}
	if h := r.header(5); h != -1 {
		t.Errorf("empty floor header = %d, want -1", h)
	}
}

func smallParams() core.Params {
	p := core.DefaultParams()
	p.N = 40
	p.Rc = 50
	p.Rs = 30
	p.Duration = 300
	p.InitRegion = geom.R(0, 0, 150, 150)
	p.CoverageRes = 4
	return p
}

func runFloor(t *testing.T, f *field.Field, p core.Params, cfg Config) (*core.World, *Scheme) {
	t.Helper()
	w, err := core.NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	s.Attach(w)
	w.E.RunUntil(p.Duration)
	return w, s
}

func smallField(t *testing.T) *field.Field {
	t.Helper()
	return field.MustNew(geom.R(0, 0, 400, 400), nil)
}

func TestFloorConnectsAllSensors(t *testing.T) {
	w, s := runFloor(t, smallField(t), smallParams(), DefaultConfig())
	if !core.AllConnected(w.Layout(), w.F.Reference(), w.P.Rc) {
		t.Fatal("final unit-disk network is not connected")
	}
	// Every fixed sensor is a tree member rooted at the base.
	for i := range w.Sensors {
		if s.st[i] == stateFixed && !w.Tree.InTree(i) {
			t.Errorf("fixed sensor %d not in tree", i)
		}
	}
}

func TestFloorImprovesCoverage(t *testing.T) {
	f := smallField(t)
	p := smallParams()
	w, err := core.NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	est := coverage.NewEstimator(f, p.CoverageRes)
	before := est.Fraction(w.Layout(), p.Rs)
	s := New(DefaultConfig())
	s.Attach(w)
	w.E.RunUntil(p.Duration)
	after := est.Fraction(w.Layout(), p.Rs)
	if after <= before {
		t.Errorf("coverage did not improve: %.3f -> %.3f", before, after)
	}
	t.Logf("coverage %.3f -> %.3f (fixed %d, movable %d)",
		before, after, s.FixedCount(), s.MovableCount())
	if after < 0.25 {
		t.Errorf("final coverage %.3f suspiciously low", after)
	}
}

func TestFloorSensorsConvergeToLines(t *testing.T) {
	// Sensors placed by FLG expansion should sit near floor lines; measure
	// the fraction of fixed sensors within 5 m of a line.
	p := smallParams()
	w, s := runFloor(t, smallField(t), p, DefaultConfig())
	fl := NewFloors(w.F.Bounds(), p.Rs)
	near, total := 0, 0
	for i := range w.Sensors {
		if s.st[i] != stateFixed {
			continue
		}
		total++
		y := w.Pos(i).Y
		if math.Abs(y-fl.NearestLineY(y)) < 5 {
			near++
		}
	}
	if total == 0 {
		t.Fatal("no fixed sensors")
	}
	if frac := float64(near) / float64(total); frac < 0.35 {
		t.Errorf("only %.0f%% of fixed sensors near floor lines", 100*frac)
	}
}

func TestFloorStaysInFreeSpace(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 400, 400),
		[]geom.Polygon{geom.R(150, 100, 250, 300).Polygon()})
	w, _ := runFloor(t, f, smallParams(), DefaultConfig())
	for i := range w.Sensors {
		if pos := w.Pos(i); !f.Free(pos) {
			t.Errorf("sensor %d inside obstacle at %v", i, pos)
		}
	}
}

func TestFloorExpandsPastObstacles(t *testing.T) {
	// A wall with one exit: FLOOR must push coverage past it (the paper's
	// key advantage over CPVF, Fig 8c). The field is provisioned so that
	// movable sensors remain after the near side of the wall saturates.
	f := field.MustNew(geom.R(0, 0, 400, 200),
		[]geom.Polygon{geom.R(200, 40, 230, 200).Polygon()})
	p := smallParams()
	p.N = 55 // enough fuel to saturate the near side and push through
	p.Duration = 600
	w, _ := runFloor(t, f, p, DefaultConfig())
	beyond := 0
	for i := range w.Sensors {
		if w.Pos(i).X > 230 {
			beyond++
		}
	}
	if beyond == 0 {
		t.Error("no sensors made it past the wall")
	}
}

func TestFloorConvergence(t *testing.T) {
	// FLOOR's movement is bounded: once movables settle, nothing moves
	// (§5.6: "the convergence time of the protocol is bounded").
	p := smallParams()
	p.Duration = 700
	w, _ := runFloor(t, smallField(t), p, DefaultConfig())
	if w.LastMoveTime() > p.Duration-50 {
		t.Errorf("still moving at %.0f s of %.0f s", w.LastMoveTime(), p.Duration)
	}
}

func TestFloorDeterminism(t *testing.T) {
	f := smallField(t)
	p := smallParams()
	w1, _ := runFloor(t, f, p, DefaultConfig())
	w2, _ := runFloor(t, f, p, DefaultConfig())
	for i := range w1.Sensors {
		if !w1.Pos(i).Eq(w2.Pos(i)) {
			t.Fatalf("sensor %d diverged", i)
		}
	}
	if w1.Msg.Total() != w2.Msg.Total() {
		t.Error("message totals diverged")
	}
}

func TestFloorMessageOverheadGrowsWithTTL(t *testing.T) {
	f := smallField(t)
	p := smallParams()
	short := DefaultConfig()
	short.TTL = 4
	long := DefaultConfig()
	long.TTL = 16
	wShort, _ := runFloor(t, f, p, short)
	wLong, _ := runFloor(t, f, p, long)
	if wLong.Msg.Of(core.MsgInvite) <= wShort.Msg.Of(core.MsgInvite) {
		t.Errorf("invite messages: TTL16 %d <= TTL4 %d",
			wLong.Msg.Of(core.MsgInvite), wShort.Msg.Of(core.MsgInvite))
	}
}

func TestFloorTreeLinkLengths(t *testing.T) {
	// The paper's guarantee is physical (unit-disk) connectivity of the
	// final layout; tree links are bookkeeping that may transiently span a
	// chain gap. Assert that the overwhelming majority of parent links are
	// within rc, that base links respect the connect radius, and that every
	// fixed sensor has at least one physical neighbor.
	p := smallParams()
	w, s := runFloor(t, smallField(t), p, DefaultConfig())
	connectR := math.Min(p.Rc, 2*p.Rs)
	long, total := 0, 0
	for i := range w.Sensors {
		if s.st[i] != stateFixed {
			continue
		}
		switch par := w.Tree.Parent(i); {
		case par >= 0:
			total++
			if d := w.Pos(i).Dist(w.Pos(par)); d > p.Rc+1e-6 {
				long++
			}
		case par == core.BaseParent:
			if d := w.Pos(i).Dist(w.F.Reference()); d > connectR+1e-6 {
				t.Errorf("sensor %d: base link %.1f m exceeds connect radius", i, d)
			}
		}
		if len(w.Neighbors(i, p.Rc)) == 0 && !w.NearBase(i, p.Rc) {
			t.Errorf("fixed sensor %d has no physical neighbor", i)
		}
	}
	if total > 0 && float64(long)/float64(total) > 0.1 {
		t.Errorf("%d/%d parent links exceed rc", long, total)
	}
}

func TestFloorBeatsCPVFLikeClusteringUnderSmallRc(t *testing.T) {
	// With rc < rs, FLOOR should still spread along floor lines and obtain
	// reasonable coverage (the paper's Fig 8b vs Fig 3b contrast).
	f := smallField(t)
	p := smallParams()
	p.Rc = 20
	p.Rs = 30
	p.Duration = 800
	w, _ := runFloor(t, f, p, DefaultConfig())
	est := coverage.NewEstimator(f, 4)
	cov := est.Fraction(w.Layout(), p.Rs)
	if cov < 0.15 {
		t.Errorf("small-rc coverage %.3f too low", cov)
	}
	if !core.AllConnected(w.Layout(), w.F.Reference(), p.Rc) {
		t.Error("small-rc run lost connectivity")
	}
}

func TestFloorUniformInitialDistribution(t *testing.T) {
	// §6: results for the uniform initial distribution are consistent with
	// the clustered case.
	f := smallField(t)
	p := smallParams()
	p.InitRegion = f.Bounds()
	p.Duration = 700 // distant sensors need time to walk in and redeploy
	w, _ := runFloor(t, f, p, DefaultConfig())
	if !core.AllConnected(w.Layout(), w.F.Reference(), w.P.Rc) {
		t.Error("uniform-init run lost connectivity")
	}
}

// TestRegistryHeaderMatchesScan checks the kept floor headers against a
// linear scan of each floor's real records (smallest x, ties to the
// smaller ID) after every add and remove of real and virtual records.
// x takes few values, so ties are common, and IDs repeat across adds.
func TestRegistryHeaderMatchesScan(t *testing.T) {
	scan := func(r *registry, k int) int {
		best, bestX := -1, math.Inf(1)
		for _, rec := range r.perF[k] {
			if !rec.virtual && (rec.pos.X < bestX || rec.pos.X == bestX && (best == -1 || rec.id < best)) {
				best, bestX = rec.id, rec.pos.X
			}
		}
		return best
	}
	rng := rand.New(rand.NewPCG(18, 3))
	fl := NewFloors(geom.R(0, 0, 400, 400), 40)
	r := newRegistry(fl, field.MustNew(geom.R(0, 0, 400, 400), nil))
	var tokens []int
	changed := 0
	for op := 0; op < 5000; op++ {
		before := make([]int, fl.Count())
		for k := range before {
			before[k] = r.header(k)
		}
		pos := geom.V(float64(rng.IntN(6))*40, rng.Float64()*400)
		switch k := rng.IntN(4); {
		case k == 0:
			r.addFixed(rng.IntN(30), pos)
		case k == 1:
			tokens = append(tokens, r.addVirtual(pos))
		case k == 2:
			r.removeFixed(rng.IntN(30))
		case len(tokens) > 0:
			i := rng.IntN(len(tokens))
			r.removeVirtual(tokens[i])
			tokens = slices.Delete(tokens, i, i+1)
		}
		for k := range fl.Count() {
			got, want := r.header(k), scan(r, k)
			if got != want {
				t.Fatalf("op %d: header(%d) = %d, scan %d", op, k, got, want)
			}
			if got != before[k] {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatal("no header ever changed")
	}
}
