package coverage

import (
	"math/rand/v2"
	"testing"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// losBenchSetup builds a fixed obstacle-heavy field with free sensor
// positions for the line-of-sight coverage benchmarks.
func losBenchSetup(b *testing.B, nPos int) (*field.Field, []geom.Vec) {
	b.Helper()
	rng := rand.New(rand.NewPCG(3, 14))
	f, err := field.RandomObstacles(rng, field.RandomObstacleConfig{
		MinCount:  8,
		MaxCount:  8,
		MinSide:   80,
		MaxSide:   300,
		KeepClear: 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	positions := make([]geom.Vec, nPos)
	for i := range positions {
		positions[i] = f.RandomFreePoint(rng, f.Bounds())
	}
	return f, positions
}

// BenchmarkFractionLOS measures coverage estimation on an obstacle-heavy
// field, where every in-range cell pays a line-of-sight test — the
// dominant cost of obstacle-dense sweeps.
func BenchmarkFractionLOS(b *testing.B) {
	f, positions := losBenchSetup(b, 120)
	e := NewEstimator(f, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Fraction(positions, 40)
	}
}

// BenchmarkFractionIncremental measures the steady-state cost the
// incremental tracker pays per trace sample: one sensor moved a short
// step (one scan of the new disk, counts changed only where they differ
// from its footprint) followed by a Fraction query answered from the
// running histogram. Compare against BenchmarkFractionLOS, which
// re-scans every sensor's disk for the same answer.
func BenchmarkFractionIncremental(b *testing.B) {
	f, positions := losBenchSetup(b, 120)
	e := NewEstimator(f, 5)
	present := make([]bool, len(positions))
	for i := range present {
		present[i] = true
	}
	tr := e.AcquireTracker(40, len(positions))
	defer tr.Release()
	tr.Seed(positions, present)
	home := positions[7]
	away := geom.V(home.X+3, home.Y+3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			tr.Set(7, away)
		} else {
			tr.Set(7, home)
		}
		tr.Fraction()
	}
}

// BenchmarkExclusiveArea measures FLOOR's movable-sensor test: exclusive
// coverage of 10 centers against 40 other sensors at the rs/8 sampling
// resolution phase 2 uses.
func BenchmarkExclusiveArea(b *testing.B) {
	f, positions := losBenchSetup(b, 50)
	centers, others := positions[:10], positions[10:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range centers {
			ExclusiveArea(f, c, 40, others, 5)
		}
	}
}

// estimatorSink keeps BenchmarkNewEstimator's result live.
var estimatorSink *Estimator

// BenchmarkNewEstimator measures building an estimator's free mask for
// the two-obstacles field at the default 5 m resolution: the set-up each
// field's first run pays.
func BenchmarkNewEstimator(b *testing.B) {
	f := twoObstacleField(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estimatorSink = NewEstimator(f, 5)
	}
}
