package coverage

import (
	"math"
	"testing"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

func TestFractionSingleDisk(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	e := NewEstimator(f, 1)
	got := e.Fraction([]geom.Vec{geom.V(50, 50)}, 20)
	want := math.Pi * 400 / 10000
	if math.Abs(got-want) > 0.01 {
		t.Errorf("fraction = %v, want ~%v", got, want)
	}
}

func TestFractionEmptyAndFull(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	e := NewEstimator(f, 2)
	if got := e.Fraction(nil, 20); got != 0 {
		t.Errorf("no sensors: fraction = %v", got)
	}
	if got := e.Fraction([]geom.Vec{geom.V(50, 50)}, 100); got != 1 {
		t.Errorf("giant disk: fraction = %v", got)
	}
}

func TestFractionIgnoresObstacleArea(t *testing.T) {
	// Obstacle occupies the NE quadrant; a disk covering only the obstacle
	// contributes nothing.
	f := field.MustNew(geom.R(0, 0, 100, 100),
		[]geom.Polygon{geom.R(50, 50, 100, 100).Polygon()})
	e := NewEstimator(f, 1)
	if got := e.Fraction([]geom.Vec{geom.V(80, 80)}, 15); got > 0.001 {
		t.Errorf("disk inside obstacle: fraction = %v, want ~0", got)
	}
	// The free area is 3/4 of the field.
	if got := e.FreeArea(); math.Abs(got-7500) > 150 {
		t.Errorf("free area = %v, want ~7500", got)
	}
	// A disk of radius 100 at the origin covers all free space.
	if got := e.Fraction([]geom.Vec{geom.V(0, 0)}, 150); got != 1 {
		t.Errorf("full cover fraction = %v", got)
	}
}

func TestFractionDuplicateSensorsNoDoubleCount(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	e := NewEstimator(f, 1)
	one := e.Fraction([]geom.Vec{geom.V(30, 30)}, 10)
	two := e.Fraction([]geom.Vec{geom.V(30, 30), geom.V(30, 30)}, 10)
	if one != two {
		t.Errorf("duplicate sensor changed fraction: %v vs %v", one, two)
	}
}

func TestFractionMonotoneInSensors(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	e := NewEstimator(f, 2)
	a := e.Fraction([]geom.Vec{geom.V(25, 25)}, 15)
	b := e.Fraction([]geom.Vec{geom.V(25, 25), geom.V(75, 75)}, 15)
	if b < a {
		t.Errorf("adding a sensor reduced coverage: %v -> %v", a, b)
	}
}

func TestExclusiveArea(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 200, 200), nil)
	center := geom.V(100, 100)

	t.Run("alone", func(t *testing.T) {
		got := ExclusiveArea(f, center, 20, nil, 1)
		want := math.Pi * 400
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("exclusive = %v, want ~%v", got, want)
		}
	})

	t.Run("fully duplicated", func(t *testing.T) {
		got := ExclusiveArea(f, center, 20, []geom.Vec{center}, 1)
		if got != 0 {
			t.Errorf("exclusive = %v, want 0", got)
		}
	})

	t.Run("half overlapped", func(t *testing.T) {
		alone := ExclusiveArea(f, center, 20, nil, 1)
		got := ExclusiveArea(f, center, 20, []geom.Vec{geom.V(120, 100)}, 1)
		if got >= alone || got <= 0 {
			t.Errorf("partial overlap exclusive = %v (alone %v)", got, alone)
		}
	})

	t.Run("clipped by field boundary", func(t *testing.T) {
		corner := ExclusiveArea(f, geom.V(0, 0), 20, nil, 1)
		want := math.Pi * 400 / 4
		if math.Abs(corner-want) > 0.1*want {
			t.Errorf("corner exclusive = %v, want ~%v", corner, want)
		}
	})
}

func TestEstimatorDefaultResolution(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	e := NewEstimator(f, 0)
	if e.Resolution() != 5 {
		t.Errorf("default resolution = %v", e.Resolution())
	}
}

func TestKFraction(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	e := NewEstimator(f, 1)
	a := geom.V(45, 50)
	b := geom.V(55, 50)

	t.Run("k=1 equals Fraction", func(t *testing.T) {
		pos := []geom.Vec{a, b}
		if k1, fr := e.KFraction(pos, 20, 1), e.Fraction(pos, 20); k1 != fr {
			t.Errorf("KFraction(1)=%v != Fraction=%v", k1, fr)
		}
	})

	t.Run("k=2 is the overlap lens", func(t *testing.T) {
		got := e.KFraction([]geom.Vec{a, b}, 20, 2)
		// Two r=20 disks at distance 10: lens area = 2r²·acos(d/2r) − (d/2)·sqrt(4r²−d²).
		lens := 2*400*math.Acos(10.0/40) - 5*math.Sqrt(4*400-100)
		want := lens / 10000
		if math.Abs(got-want) > 0.01 {
			t.Errorf("k=2 fraction = %v, want ~%v", got, want)
		}
	})

	t.Run("k beyond sensors is zero", func(t *testing.T) {
		if got := e.KFraction([]geom.Vec{a, b}, 20, 3); got != 0 {
			t.Errorf("k=3 with two sensors = %v", got)
		}
	})

	t.Run("monotone in k", func(t *testing.T) {
		pos := []geom.Vec{a, b, geom.V(50, 55), geom.V(50, 45)}
		prev := 2.0
		for k := 1; k <= 4; k++ {
			cur := e.KFraction(pos, 20, k)
			if cur > prev {
				t.Errorf("KFraction not monotone at k=%d: %v > %v", k, cur, prev)
			}
			prev = cur
		}
	})

	t.Run("invalid k", func(t *testing.T) {
		if e.KFraction([]geom.Vec{a}, 20, 0) != 0 {
			t.Error("k=0 should be 0")
		}
	})
}
