package mobisense

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mobisense/internal/geom"
)

// quickConfig shrinks the default scenario for fast API tests.
func quickConfig(s Scheme) Config {
	cfg := DefaultConfig(s)
	cfg.N = 40
	cfg.Duration = 120
	f, err := BuildFieldSpec(FieldSpec{Bounds: RectSpec{MaxX: 400, MaxY: 400}}, 0)
	if err != nil {
		panic(err)
	}
	cfg.Field = f
	cfg.Rc = 50
	cfg.Rs = 30
	return cfg
}

func TestRunAllSchemes(t *testing.T) {
	for _, s := range []Scheme{SchemeCPVF, SchemeFLOOR, SchemeVOR, SchemeMinimax, SchemeOPT} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			res, err := Run(quickConfig(s))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Scheme != s {
				t.Errorf("scheme = %q", res.Scheme)
			}
			if res.Coverage <= 0 || res.Coverage > 1 {
				t.Errorf("coverage = %v", res.Coverage)
			}
			if len(res.Positions) != 40 {
				t.Errorf("positions = %d", len(res.Positions))
			}
			if res.AvgMoveDistance < 0 {
				t.Errorf("distance = %v", res.AvgMoveDistance)
			}
		})
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Scheme: "bogus"}); err == nil {
		t.Error("bogus scheme should error")
	}
	if _, err := Run(Config{Scheme: SchemeCPVF}); err == nil {
		t.Error("missing field should error")
	}
	cfg := quickConfig(SchemeCPVF)
	cfg.N = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero sensors should error")
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(quickConfig(SchemeFLOOR))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickConfig(SchemeFLOOR))
	if err != nil {
		t.Fatal(err)
	}
	if a.Coverage != b.Coverage || a.AvgMoveDistance != b.AvgMoveDistance || a.Messages != b.Messages {
		t.Error("identical configs produced different results")
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatalf("position %d diverged", i)
		}
	}
}

func TestSchemesGuaranteeConnectivity(t *testing.T) {
	for _, s := range []Scheme{SchemeCPVF, SchemeFLOOR} {
		cfg := quickConfig(s)
		cfg.Duration = 300
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Connected {
			t.Errorf("%s: final network disconnected", s)
		}
	}
}

func TestVORBaselineDisconnectsAtSmallRc(t *testing.T) {
	cfg := quickConfig(SchemeVOR)
	cfg.Rc = 24 // rc/rs = 0.8, the Fig 10 failure regime
	cfg.Rs = 30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Connected {
		t.Error("VOR at rc/rs=0.8 should disconnect (Fig 10)")
	}
	if res.IncorrectVoronoiCells == 0 {
		t.Error("expected incorrect local Voronoi cells")
	}
}

// TestFieldConstructors: the default field is the "free" scenario's
// cached field, the registry's two-obstacles field leaves the three exits
// of Figs 3c/8c open, and a field-covering obstacle is an error.
func TestFieldConstructors(t *testing.T) {
	of := ObstacleFreeField()
	if w, h := of.Bounds(); w != 1000 || h != 1000 {
		t.Errorf("bounds = %v x %v", w, h)
	}
	if of.NumObstacles() != 0 {
		t.Error("obstacle-free field has obstacles")
	}
	if free, err := BuildScenario("free", 9); err != nil || free.f != of.f {
		t.Errorf("the default field is not the free scenario's cached field (err %v)", err)
	}

	two, err := BuildScenario("two-obstacles", 1)
	if err != nil {
		t.Fatal(err)
	}
	if two.NumObstacles() != 2 {
		t.Errorf("two-obstacle field has %d obstacles", two.NumObstacles())
	}
	if frac := two.FreeAreaFraction(); frac >= 1 || frac < 0.9 {
		t.Errorf("free fraction = %v", frac)
	}
	for _, p := range []geom.Vec{
		geom.V(525, 20),  // bottom exit
		geom.V(60, 525),  // left/top exit
		geom.V(475, 525), // corner exit
	} {
		if !two.f.Free(p) {
			t.Errorf("exit point %v should be free", p)
		}
	}
	if two.f.Free(geom.V(525, 300)) || two.f.Free(geom.V(300, 525)) {
		t.Error("slab interiors should be blocked")
	}

	if _, err := BuildScenario("random-obstacles", 7); err != nil {
		t.Errorf("random field: %v", err)
	}
	covered := FieldSpec{Bounds: RectSpec{MaxX: 100, MaxY: 100}, Obstacles: []ObstacleSpec{RectObstacle(-10, -10, 200, 200)}}
	if _, err := BuildFieldSpec(covered, 0); err == nil {
		t.Error("field-covering obstacle should error")
	}
}

func TestResultRenderers(t *testing.T) {
	res, err := Run(quickConfig(SchemeFLOOR))
	if err != nil {
		t.Fatal(err)
	}
	m := res.ASCIIMap(40)
	if !strings.Contains(m, "B") {
		t.Error("map missing base station")
	}
	if len(strings.Split(strings.TrimSpace(m), "\n")) < 5 {
		t.Error("map too short")
	}
	csv := res.PositionsCSV()
	if !strings.HasPrefix(csv, "id,x,y\n") {
		t.Error("csv header missing")
	}
	if got := len(strings.Split(strings.TrimSpace(csv), "\n")); got != 41 {
		t.Errorf("csv rows = %d, want 41", got)
	}
}

func TestCPVFOptionsRoundTrip(t *testing.T) {
	cfg := quickConfig(SchemeCPVF)
	cfg.CPVF = &CPVFOptions{Oscillation: "two-step", Delta: 2}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.CPVF = &CPVFOptions{Oscillation: "one-step", Delta: 8, DisallowParentChange: true}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFloorPlacementsReported(t *testing.T) {
	cfg := quickConfig(SchemeFLOOR)
	cfg.Duration = 300
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placements == nil {
		t.Fatal("FLOOR placements missing")
	}
	total := res.Placements["flg"] + res.Placements["blg"] + res.Placements["iflg"]
	if total == 0 {
		t.Error("no placements recorded")
	}
}

func TestRunWithFailures(t *testing.T) {
	cfg := quickConfig(SchemeFLOOR)
	cfg.Duration = 400
	cfg.Failures = &FailureOptions{Interval: 40, MaxKills: 4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alive != cfg.N-4 {
		t.Errorf("alive = %d, want %d", res.Alive, cfg.N-4)
	}
	if len(res.Positions) != res.Alive {
		t.Errorf("positions (%d) should cover survivors only (%d)", len(res.Positions), res.Alive)
	}
	// Coverage must remain sane and 2-coverage must not exceed 1-coverage.
	if res.Coverage <= 0 || res.Coverage2 > res.Coverage {
		t.Errorf("coverage=%v coverage2=%v", res.Coverage, res.Coverage2)
	}
}

func TestCoverage2Reported(t *testing.T) {
	res, err := Run(quickConfig(SchemeOPT))
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage2 < 0 || res.Coverage2 > res.Coverage {
		t.Errorf("coverage2 = %v vs coverage %v", res.Coverage2, res.Coverage)
	}
}

// TestPositionsCSVRoundTrip: a real deployment's PositionsCSV has an
// id,x,y header and one row per sensor, ids dense in layout order, each
// position to the millimetre — the contract that makes exported layouts
// replayable.
func TestPositionsCSVRoundTrip(t *testing.T) {
	res, err := Run(quickConfig(SchemeFLOOR))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) == 0 {
		t.Fatal("run produced no positions")
	}
	rows := strings.Split(res.PositionsCSV(), "\n")
	if rows[0] != "id,x,y" || len(rows) != len(res.Positions)+2 || rows[len(rows)-1] != "" {
		t.Fatalf("csv has header %q and %d lines for %d positions", rows[0], len(rows), len(res.Positions))
	}
	for i, p := range res.Positions {
		var id int
		var x, y float64
		if _, err := fmt.Sscanf(rows[i+1], "%d,%g,%g", &id, &x, &y); err != nil || id != i ||
			math.Abs(x-p.X) > 0.0005 || math.Abs(y-p.Y) > 0.0005 {
			t.Errorf("row %q (%v), want id %d at (%v,%v) ±0.0005", rows[i+1], err, i, p.X, p.Y)
		}
	}
}
