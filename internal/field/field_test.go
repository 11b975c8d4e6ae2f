package field

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"mobisense/internal/geom"
)

func TestNewValidation(t *testing.T) {
	bounds := geom.R(0, 0, 100, 100)

	t.Run("degenerate obstacle", func(t *testing.T) {
		_, err := New(bounds, []geom.Polygon{{geom.V(1, 1), geom.V(2, 2)}})
		if !errors.Is(err, ErrDegenerateObstacle) {
			t.Errorf("err = %v, want ErrDegenerateObstacle", err)
		}
	})

	t.Run("blocked reference", func(t *testing.T) {
		_, err := New(bounds, []geom.Polygon{geom.R(-10, -10, 20, 20).Polygon()})
		if !errors.Is(err, ErrBlockedReference) {
			t.Errorf("err = %v, want ErrBlockedReference", err)
		}
	})

	t.Run("partitioned field", func(t *testing.T) {
		// A wall spanning the full height cuts the field in two.
		wall := geom.R(50, -1, 60, 101).Polygon()
		_, err := New(bounds, []geom.Polygon{wall})
		if !errors.Is(err, ErrDisconnected) {
			t.Errorf("err = %v, want ErrDisconnected", err)
		}
	})

	t.Run("valid field", func(t *testing.T) {
		f, err := New(bounds, []geom.Polygon{geom.R(40, 40, 60, 60).Polygon()})
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if len(f.Obstacles()) != 1 {
			t.Errorf("obstacles = %d", len(f.Obstacles()))
		}
		if f.NumSolids() != 5 { // obstacle + 4 frame polygons
			t.Errorf("solids = %d, want 5", f.NumSolids())
		}
	})
}

func TestFieldFree(t *testing.T) {
	f := MustNew(geom.R(0, 0, 100, 100), []geom.Polygon{geom.R(40, 40, 60, 60).Polygon()})
	tests := []struct {
		name string
		p    geom.Vec
		want bool
	}{
		{"open space", geom.V(10, 10), true},
		{"inside obstacle", geom.V(50, 50), false},
		{"on obstacle boundary", geom.V(40, 50), true},
		{"on field boundary", geom.V(0, 50), true},
		{"corner reference", geom.V(0, 0), true},
		{"outside field", geom.V(-5, 50), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := f.Free(tt.p); got != tt.want {
				t.Errorf("Free(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestFirstHit(t *testing.T) {
	f := MustNew(geom.R(0, 0, 100, 100), []geom.Polygon{geom.R(40, 40, 60, 60).Polygon()})

	t.Run("hits obstacle", func(t *testing.T) {
		hit, ok := f.FirstHit(geom.Seg(geom.V(10, 50), geom.V(90, 50)))
		if !ok {
			t.Fatal("expected hit")
		}
		if !hit.Point.Eq(geom.V(40, 50)) {
			t.Errorf("hit at %v, want (40,50)", hit.Point)
		}
		if f.IsFrame(hit.Solid) {
			t.Error("hit should be the interior obstacle, not the frame")
		}
	})

	t.Run("hits frame when leaving field", func(t *testing.T) {
		hit, ok := f.FirstHit(geom.Seg(geom.V(10, 10), geom.V(-30, 10)))
		if !ok {
			t.Fatal("expected frame hit")
		}
		if !hit.Point.Eq(geom.V(0, 10)) {
			t.Errorf("hit at %v, want (0,10)", hit.Point)
		}
		if !f.IsFrame(hit.Solid) {
			t.Error("expected frame solid")
		}
	})

	t.Run("free segment", func(t *testing.T) {
		if _, ok := f.FirstHit(geom.Seg(geom.V(5, 5), geom.V(30, 5))); ok {
			t.Error("expected no hit")
		}
	})
}

func TestSegmentFree(t *testing.T) {
	f := MustNew(geom.R(0, 0, 100, 100), []geom.Polygon{geom.R(40, 40, 60, 60).Polygon()})
	tests := []struct {
		name string
		a, b geom.Vec
		want bool
	}{
		{"clear", geom.V(5, 5), geom.V(30, 30), true},
		{"through obstacle", geom.V(10, 50), geom.V(90, 50), false},
		{"endpoint on wall", geom.V(40, 50), geom.V(10, 50), true},
		{"leaves field", geom.V(10, 10), geom.V(-5, 10), false},
		{"grazes corner", geom.V(30, 30), geom.V(39.9, 39.9), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := f.SegmentFree(tt.a, tt.b); got != tt.want {
				t.Errorf("SegmentFree(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestBoundariesWithin(t *testing.T) {
	f := MustNew(geom.R(0, 0, 100, 100), []geom.Polygon{geom.R(40, 40, 60, 60).Polygon()})
	// Near the obstacle's left wall.
	prox := f.BoundariesWithin(geom.V(30, 50), 15)
	if len(prox) != 1 {
		t.Fatalf("got %d proximities, want 1: %+v", len(prox), prox)
	}
	if !prox[0].Point.Eq(geom.V(40, 50)) || math.Abs(prox[0].Dist-10) > 1e-9 {
		t.Errorf("proximity = %+v", prox[0])
	}
	// Far from everything.
	if got := f.BoundariesWithin(geom.V(20, 20), 5); len(got) != 0 {
		t.Errorf("expected none, got %+v", got)
	}
	// Near the field corner: two frame polygons within range.
	got := f.BoundariesWithin(geom.V(3, 3), 5)
	if len(got) < 2 {
		t.Errorf("expected at least two frame proximities near corner, got %d", len(got))
	}
}

func TestBoundarySegmentsWithin(t *testing.T) {
	f := MustNew(geom.R(0, 0, 100, 100), []geom.Polygon{geom.R(40, 40, 60, 60).Polygon()})
	// The disk of radius 15 at (30,50) sees the whole left wall (corners at
	// distance sqrt(200) ≈ 14.14) plus short slivers of the top and bottom
	// walls just past the corners.
	segs := f.BoundarySegmentsWithin(geom.V(30, 50), 15)
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3: %+v", len(segs), segs)
	}
	var wall *geom.Segment
	for i := range segs {
		s := segs[i].Seg
		if math.Abs(s.A.X-40) < 1e-9 && math.Abs(s.B.X-40) < 1e-9 {
			wall = &s
		}
	}
	if wall == nil {
		t.Fatalf("left wall segment missing: %+v", segs)
	}
	lo, hi := math.Min(wall.A.Y, wall.B.Y), math.Max(wall.A.Y, wall.B.Y)
	if math.Abs(lo-40) > 1e-6 || math.Abs(hi-60) > 1e-6 {
		t.Errorf("wall chord = [%v,%v], want [40,60]", lo, hi)
	}
	// A tighter radius sees only the wall chord.
	segs = f.BoundarySegmentsWithin(geom.V(30, 50), 12)
	if len(segs) != 1 {
		t.Fatalf("radius 12: got %d segments, want 1: %+v", len(segs), segs)
	}
	half := math.Sqrt(12*12 - 10*10)
	s := segs[0].Seg
	lo, hi = math.Min(s.A.Y, s.B.Y), math.Max(s.A.Y, s.B.Y)
	if math.Abs(lo-(50-half)) > 1e-6 || math.Abs(hi-(50+half)) > 1e-6 {
		t.Errorf("chord = [%v,%v], want [%v,%v]", lo, hi, 50-half, 50+half)
	}
}

func TestFreeArea(t *testing.T) {
	f := MustNew(geom.R(0, 0, 100, 100), []geom.Polygon{geom.R(0, 0, 50, 50).Polygon()},
		WithReference(geom.V(99, 99)))
	got := f.FreeArea(1)
	want := 100.0*100 - 50*50
	if math.Abs(got-want) > 0.03*want {
		t.Errorf("free area = %v, want ~%v", got, want)
	}
}

// twoObstacles is the geometry of the "two-obstacles" scenario (Figs
// 3c/8c): two slabs walling off the initial cluster with three exits.
func twoObstacles() *Field {
	return MustNew(StandardBounds(), []geom.Polygon{
		geom.R(500, 40, 550, 500).Polygon(),
		geom.R(120, 500, 450, 550).Polygon(),
	})
}

// TestStandardFields: the paper's standard geometry — a 1000 × 1000 m
// field with the base station at the origin — is what an obstacle-free
// standard spec and the §6.4 generator both build on. The named
// environments on it (e.g. two-obstacles) are checked with the scenario
// registry.
func TestStandardFields(t *testing.T) {
	if StandardBounds() != geom.R(0, 0, 1000, 1000) {
		t.Fatalf("standard bounds = %v", StandardBounds())
	}

	of, err := Spec{Bounds: RectSpec{MaxX: StandardSize, MaxY: StandardSize}}.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if of.Bounds() != StandardBounds() {
		t.Error("obstacle-free bounds mismatch")
	}
	if len(of.Obstacles()) != 0 {
		t.Error("obstacle-free field has obstacles")
	}
	if of.Reference() != (geom.Vec{}) || !of.Free(of.Reference()) {
		t.Errorf("base station %v should be a free origin", of.Reference())
	}

	rf, err := RandomObstacles(rand.New(rand.NewPCG(3, 1)), DefaultRandomObstacleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rf.Bounds() != StandardBounds() || rf.Reference() != (geom.Vec{}) {
		t.Errorf("random field bounds %v, reference %v; want the standard field", rf.Bounds(), rf.Reference())
	}
}

func TestRandomObstacles(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	cfg := DefaultRandomObstacleConfig()
	for i := 0; i < 20; i++ {
		f, err := RandomObstacles(rng, cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		n := len(f.Obstacles())
		if n < cfg.MinCount || n > cfg.MaxCount {
			t.Errorf("run %d: obstacle count %d outside [%d,%d]", i, n, cfg.MinCount, cfg.MaxCount)
		}
		if !f.Free(geom.Vec{}) {
			t.Errorf("run %d: reference blocked", i)
		}
	}
}

func TestRandomObstaclesBadConfig(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := RandomObstacles(rng, RandomObstacleConfig{MinCount: 3, MaxCount: 1}); err == nil {
		t.Error("expected error for inverted count range")
	}
}

func TestRandomFreePoint(t *testing.T) {
	f := MustNew(geom.R(0, 0, 100, 100), []geom.Polygon{geom.R(0, 0, 90, 90).Polygon()},
		WithReference(geom.V(95, 5)))
	rng := rand.New(rand.NewPCG(7, 3))
	for i := 0; i < 100; i++ {
		p := f.RandomFreePoint(rng, f.Bounds())
		if !f.Free(p) {
			t.Fatalf("sampled blocked point %v", p)
		}
	}
}

func TestSolidOrientation(t *testing.T) {
	// All solids (obstacles and frame) must be CCW so wall-following can
	// assume a consistent orientation.
	f := twoObstacles()
	for i := 0; i < f.NumSolids(); i++ {
		if !f.Solid(i).IsCCW() {
			t.Errorf("solid %d is not CCW", i)
		}
	}
}

// TestObstacleFreeCheckMatchesFlood: for bounds without interior
// obstacles New skips the raster and asks only whether cell (0, 0) is
// free. The per-cell flood (dfsConnected) is the oracle: on every bounds
// it must agree, and New must fail with ErrDisconnected exactly when it
// says no.
func TestObstacleFreeCheckMatchesFlood(t *testing.T) {
	// The largest square Spec.Normalize accepts: (w/5 + 1)² = 2²² cells.
	limit := RectSpec{MaxX: 2047 * connectivityRes, MaxY: 2047 * connectivityRes}
	if _, err := (Spec{Bounds: limit}).Normalize(); err != nil {
		t.Fatalf("the limit bounds must normalize: %v", err)
	}
	over := RectSpec{MaxX: limit.MaxX + connectivityRes, MaxY: limit.MaxY}
	if _, err := (Spec{Bounds: over}).Normalize(); err == nil {
		t.Fatal("bounds one column past the limit normalized")
	}
	tests := []struct {
		name      string
		b         RectSpec
		res       float64
		connected bool
	}{
		{"paper square", RectSpec{MaxX: 1000, MaxY: 1000}, connectivityRes, true},
		{"shifted origin", RectSpec{MinX: 250, MinY: 40, MaxX: 1250, MaxY: 1040}, connectivityRes, true},
		{"negative origin", RectSpec{MinX: -600, MinY: -1000, MaxX: 400, MaxY: -20}, connectivityRes, true},
		{"negative fractional origin", RectSpec{MinX: -1003.7, MinY: -17.2, MaxX: -3.3, MaxY: 500.1}, connectivityRes, true},
		{"size not a multiple of the cell", RectSpec{MaxX: 997.5, MaxY: 13}, connectivityRes, true},
		{"one cell wide", RectSpec{MaxX: 7.4, MaxY: 300}, connectivityRes, true},
		{"exactly half a cell", RectSpec{MaxX: 2.5, MaxY: 2.5}, connectivityRes, true},
		{"under half a cell", RectSpec{MaxX: 2, MaxY: 2}, connectivityRes, false},
		{"under half a cell wide", RectSpec{MaxX: 2.4, MaxY: 1000}, connectivityRes, false},
		{"under half a cell high", RectSpec{MinX: -50, MinY: -3, MaxX: 950, MaxY: -0.6}, connectivityRes, false},
		{"coarser grid", RectSpec{MinX: 3, MinY: -8, MaxX: 1001, MaxY: 997}, 7, true},
		{"Normalize's limit", limit, connectivityRes, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bounds := tt.b.rect()
			f := MustNew(bounds, nil, WithoutValidation())
			nx := int(bounds.W()/tt.res) + 1
			ny := int(bounds.H()/tt.res) + 1
			flood := dfsConnected(f, tt.res, nx, ny)
			if got := f.freeSpaceConnected(tt.res); got != flood || got != tt.connected {
				t.Fatalf("check = %v, flood = %v, want %v", got, flood, tt.connected)
			}
			_, err := New(bounds, nil, WithValidationResolution(tt.res))
			if tt.connected && err != nil || !tt.connected && !errors.Is(err, ErrDisconnected) {
				t.Errorf("New: %v (flood says connected = %v)", err, flood)
			}
		})
	}
}
