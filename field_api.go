package mobisense

import "mobisense/internal/field"

// Field is an opaque handle to a deployment area: a rectangle with
// optional polygonal obstacles. Build a registered scenario's field with
// BuildScenario, or any declarative FieldSpec with BuildFieldSpec;
// ObstacleFreeField is the default.
type Field struct {
	f    *field.Field
	name string // the name of the spec it was built from
}

func (fl Field) internal() *field.Field { return fl.f }

// Bounds returns the field's width and height in meters.
func (fl Field) Bounds() (w, h float64) {
	if fl.f == nil {
		return 0, 0
	}
	b := fl.f.Bounds()
	return b.W(), b.H()
}

// NumObstacles returns the number of interior obstacles.
func (fl Field) NumObstacles() int {
	if fl.f == nil {
		return 0
	}
	return len(fl.f.Obstacles())
}

// FreeAreaFraction estimates the fraction of the field not blocked by
// obstacles.
func (fl Field) FreeAreaFraction() float64 {
	if fl.f == nil {
		return 0
	}
	return fl.f.FreeArea(5) / fl.f.Bounds().Area()
}

// ObstacleFreeField returns the paper's standard 1000×1000 m field with no
// obstacles and the base station at the origin: the "free" scenario's
// field, from the same build cache entry.
func ObstacleFreeField() Field {
	f, err := BuildFieldSpec(FieldSpec{Bounds: standardBoundsSpec()}, 0)
	if err != nil {
		panic(err) // fixed, valid geometry
	}
	return f
}
