package baseline

import (
	"math"
	"math/rand/v2"
	"testing"

	"mobisense/internal/core"
	"mobisense/internal/coverage"
	"mobisense/internal/field"
	"mobisense/internal/geom"
)

func TestVoronoiCellSinglePair(t *testing.T) {
	bounds := geom.R(0, 0, 100, 100)
	self := geom.V(25, 50)
	other := geom.V(75, 50)
	cell := VoronoiCell(self, []geom.Vec{other}, bounds)
	if cell == nil {
		t.Fatal("nil cell")
	}
	// The cell must be the left half of the field.
	if math.Abs(math.Abs(cell.Area())-5000) > 1 {
		t.Errorf("cell area = %v, want 5000", cell.Area())
	}
	if !cell.Contains(self) {
		t.Error("cell must contain its site")
	}
	if cell.Contains(geom.V(75, 50)) {
		t.Error("cell must not contain the neighbor")
	}
}

func TestVoronoiCellNoNeighbors(t *testing.T) {
	bounds := geom.R(0, 0, 100, 100)
	cell := VoronoiCell(geom.V(10, 10), nil, bounds)
	if math.Abs(cell.Area()-10000) > 1e-6 {
		t.Errorf("lonely cell should be the whole field, got area %v", cell.Area())
	}
}

func TestVoronoiCellsPartitionField(t *testing.T) {
	// True Voronoi cells must tile the bounds: areas sum to the total.
	bounds := geom.R(0, 0, 200, 200)
	rng := rand.New(rand.NewPCG(3, 3))
	positions := make([]geom.Vec, 15)
	for i := range positions {
		positions[i] = geom.V(rng.Float64()*200, rng.Float64()*200)
	}
	cells := TrueCells(positions, bounds)
	var sum float64
	for i, c := range cells {
		if c == nil {
			t.Fatalf("cell %d is nil", i)
		}
		if !c.Contains(positions[i]) {
			t.Errorf("cell %d does not contain its site", i)
		}
		sum += math.Abs(c.Area())
	}
	if math.Abs(sum-bounds.Area()) > 1 {
		t.Errorf("cells sum to %v, want %v", sum, bounds.Area())
	}
}

func TestIncorrectCellCount(t *testing.T) {
	bounds := geom.R(0, 0, 300, 300)
	// Three collinear sensors: with rc covering everything the local cells
	// are exact.
	positions := []geom.Vec{geom.V(50, 150), geom.V(150, 150), geom.V(250, 150)}
	if got := IncorrectCellCount(positions, 500, bounds, 0.01); got != 0 {
		t.Errorf("full knowledge: %d incorrect cells", got)
	}
	// With rc=120 the outer sensors cannot see each other; sensor 0's cell
	// should wrongly extend past sensor 2's bisector... it does not matter
	// for 0 (the middle sensor blocks), but shrink rc below the nearest
	// neighbor distance and every cell becomes the whole field.
	if got := IncorrectCellCount(positions, 50, bounds, 0.01); got != 3 {
		t.Errorf("blind sensors: %d incorrect cells, want 3", got)
	}
}

func TestFarthestVertex(t *testing.T) {
	cell := geom.R(0, 0, 10, 20).Polygon()
	v, ok := FarthestVertex(cell, geom.V(1, 1))
	if !ok || !v.Eq(geom.V(10, 20)) {
		t.Errorf("farthest = %v, %v", v, ok)
	}
	if _, ok := FarthestVertex(nil, geom.V(0, 0)); ok {
		t.Error("empty cell should report no vertex")
	}
}

func clusteredStart(f *field.Field, n int, seed uint64) []geom.Vec {
	rng := rand.New(rand.NewPCG(seed, seed+7))
	out := make([]geom.Vec, n)
	for i := range out {
		out[i] = f.RandomFreePoint(rng, geom.R(0, 0, 250, 250))
	}
	return out
}

func TestExplodeConservesSensors(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 500, 500), nil)
	start := clusteredStart(f, 30, 1)
	targets, dists, err := Explode(f, start, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 30 || len(dists) != 30 {
		t.Fatal("size mismatch")
	}
	for i := range targets {
		if !f.Free(targets[i]) {
			t.Errorf("target %d not free", i)
		}
		if math.Abs(start[i].Dist(targets[i])-dists[i]) > 1e-9 {
			t.Errorf("distance mismatch for %d", i)
		}
	}
}

func TestExplodeIsMinimal(t *testing.T) {
	// The Hungarian assignment must not cost more than the identity
	// assignment to the same target multiset.
	f := field.MustNew(geom.R(0, 0, 500, 500), nil)
	start := clusteredStart(f, 20, 2)
	rng := rand.New(rand.NewPCG(42, 42^0xda3e39cb94b95bdb))
	identity := make([]geom.Vec, len(start))
	var idCost float64
	for i := range identity {
		identity[i] = f.RandomFreePoint(rng, f.Bounds())
		idCost += start[i].Dist(identity[i])
	}
	_, dists, err := Explode(f, start, 42)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, d := range dists {
		total += d
	}
	if total > idCost+1e-6 {
		t.Errorf("explosion cost %v exceeds identity cost %v", total, idCost)
	}
}

func TestRunVORImprovesCoverage(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 500, 500), nil)
	start := clusteredStart(f, 40, 3)
	cfg := DefaultVDConfig(150, 60) // generous rc: correct cells
	res, err := RunVOR(f, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est := coverage.NewEstimator(f, 5)
	before := est.Fraction(start, cfg.Rs)
	after := est.Fraction(res.Positions, cfg.Rs)
	if after <= before {
		t.Errorf("VOR coverage %.3f -> %.3f did not improve", before, after)
	}
	if after < 0.7 {
		t.Errorf("VOR with large rc should reach high coverage, got %.3f", after)
	}
}

func TestRunMinimaxImprovesCoverage(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 500, 500), nil)
	start := clusteredStart(f, 40, 4)
	cfg := DefaultVDConfig(240, 60) // rc/rs = 4: correct cells per Fig 10
	res, err := RunMinimax(f, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est := coverage.NewEstimator(f, 5)
	after := est.Fraction(res.Positions, cfg.Rs)
	if after < 0.7 {
		t.Errorf("Minimax with large rc coverage = %.3f", after)
	}
}

func TestVDSmallRcProducesIncorrectCellsAndDisconnection(t *testing.T) {
	// Fig 10's regime: rc/rs <= 2 leaves the network disconnected and the
	// cells incorrect.
	f := field.MustNew(geom.R(0, 0, 500, 500), nil)
	start := clusteredStart(f, 40, 5)
	cfg := DefaultVDConfig(48, 60) // rc/rs = 0.8
	res, err := RunVOR(f, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IncorrectCells == 0 {
		t.Error("expected incorrect local cells at rc/rs = 0.8")
	}
	if core.AllConnected(res.Positions, geom.Vec{}, cfg.Rc) {
		t.Error("expected a disconnected network at rc/rs = 0.8")
	}
}

func TestRunVDRejectsObstacles(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 500, 500),
		[]geom.Polygon{geom.R(200, 200, 300, 300).Polygon()})
	if _, err := RunVOR(f, clusteredStart(f, 5, 6), DefaultVDConfig(100, 50)); err == nil {
		t.Error("VOR on an obstacle field should error")
	}
}

func TestVDDistanceAccounting(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 500, 500), nil)
	start := clusteredStart(f, 25, 7)
	res, err := RunVOR(f, start, DefaultVDConfig(150, 60))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgDistance() <= 0 {
		t.Error("average distance should be positive")
	}
	// Per-round cap: total ≤ explosion + rounds * rc/2.
	maxPossible := 0.0
	for _, d := range res.PerSensor {
		if d > maxPossible {
			maxPossible = d
		}
	}
	bound := math.Hypot(500, 500) + 10*150/2
	if maxPossible > bound {
		t.Errorf("per-sensor distance %v exceeds bound %v", maxPossible, bound)
	}
}

func TestStripPatternGeometry(t *testing.T) {
	bounds := geom.R(0, 0, 1000, 1000)
	rc, rs := 60.0, 40.0
	pts := StripPattern(bounds, 240, rc, rs)
	if len(pts) != 240 {
		t.Fatalf("placed %d, want 240", len(pts))
	}
	d1 := math.Min(rc, math.Sqrt(3)*rs)
	// First two sensors of the bottom row must be d1 apart.
	if d := pts[0].Dist(pts[1]); math.Abs(d-d1) > 1e-6 {
		t.Errorf("intra-row spacing = %v, want %v", d, d1)
	}
	for _, p := range pts {
		if !bounds.Contains(p) {
			t.Errorf("point %v outside bounds", p)
		}
	}
}

func TestStripPatternConnectivity(t *testing.T) {
	// With rc >= d1 and rows connected (directly or via connectors), the
	// pattern graph must be connected from the first sensor.
	bounds := geom.R(0, 0, 500, 500)
	for _, tc := range []struct{ rc, rs float64 }{
		{60, 40},  // d2 < rc: rows within reach? d1=60, d2=40+sqrt(1600-900)=66.5 > rc: connectors
		{100, 40}, // d1 = 69.3, d2 = 40+20=… within rc: no connectors
		{20, 60},  // tiny rc: connectors every 20
	} {
		pts := StripPattern(bounds, 400, tc.rc, tc.rs)
		if len(pts) == 0 {
			t.Fatal("no points")
		}
		if !core.AllConnected(pts, pts[0], tc.rc) {
			t.Errorf("rc=%v rs=%v: strip pattern disconnected", tc.rc, tc.rs)
		}
	}
}

func TestStripPatternCoverageNearOptimal(t *testing.T) {
	// With enough sensors the pattern should cover nearly everything.
	f := field.MustNew(geom.R(0, 0, 500, 500), nil)
	rc, rs := 60.0, 40.0
	pts := StripPattern(f.Bounds(), 1<<20, rc, rs) // every sensor the pattern places
	est := coverage.NewEstimator(f, 5)
	if cov := est.Fraction(pts, rs); cov < 0.95 {
		t.Errorf("saturated pattern coverage = %.3f, want >= 0.95", cov)
	}
}

func TestMinMatchingDistance(t *testing.T) {
	start := []geom.Vec{geom.V(0, 0), geom.V(10, 0)}
	layout := []geom.Vec{geom.V(10, 1), geom.V(0, 1)}
	dists, err := MinMatchingDistance(start, layout)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dists[0]-1) > 1e-9 || math.Abs(dists[1]-1) > 1e-9 {
		t.Errorf("dists = %v, want [1 1]", dists)
	}
	if _, err := MinMatchingDistance(start, layout[:1]); err == nil {
		t.Error("undersized layout should error")
	}
}

func TestStripPatternZeroBudget(t *testing.T) {
	if pts := StripPattern(geom.R(0, 0, 100, 100), 0, 50, 30); pts != nil {
		t.Errorf("zero budget should yield nil, got %d", len(pts))
	}
}
