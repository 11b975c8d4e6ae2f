package mobisense

import (
	"math"
	"math/rand/v2"
	"testing"

	"mobisense/internal/core"
	"mobisense/internal/coverage"
	"mobisense/internal/geom"
)

// samplingBenchWorld builds the narrow-door field with 240 sensors placed
// as a traced run starts them: clustered in the field's lower-left
// quarter, densely connected to the base station. With spread they are
// instead uniform over the whole field, the shape of a CPVF run
// mid-transient.
func samplingBenchWorld(b *testing.B, spread bool) *core.World {
	b.Helper()
	fl, err := BuildScenario("narrow-door", 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(SchemeCPVF)
	cfg.Field = fl
	cfg.ClusterInit = !spread
	w, err := core.NewWorld(fl.internal(), cfg.params())
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkTrackerSeedLOS measures one full seed of the incremental
// coverage tracker for 240 sensors on the narrow-door field: the cost of
// a traced run's first sample.
func BenchmarkTrackerSeedLOS(b *testing.B) {
	w := samplingBenchWorld(b, true)
	defer w.Release()
	est := coverage.NewEstimator(w.F, 5)
	layout := w.Layout()
	tr := est.AcquireTracker(40, len(layout))
	defer tr.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Seed(layout, nil)
	}
}

// BenchmarkTrackerMoveLOS measures one transient trace sample of the
// incremental coverage tracker: every one of 240 sensors on the
// narrow-door field moves one 2 m step (V·T at the default speed and
// period) in a seeded direction, and Fraction is read. The tracker is
// seeded untimed; ops alternate between the two layouts, so every op
// moves every sensor.
func BenchmarkTrackerMoveLOS(b *testing.B) {
	w := samplingBenchWorld(b, true)
	defer w.Release()
	est := coverage.NewEstimator(w.F, 5)
	layouts := [2][]geom.Vec{w.Layout(), nil}
	rng := rand.New(rand.NewPCG(15, 2))
	for _, p := range layouts[0] {
		a := rng.Float64() * 2 * math.Pi
		layouts[1] = append(layouts[1], p.Add(geom.V(2*math.Cos(a), 2*math.Sin(a))))
	}
	tr := est.AcquireTracker(40, len(layouts[0]))
	defer tr.Release()
	tr.Seed(layouts[0], nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id, p := range layouts[(i+1)%2] {
			tr.Set(id, p)
		}
		tr.Fraction()
	}
}

// BenchmarkSampleTrace measures the per-sample world telemetry of a
// traced run — the alive layout plus the unit-disk connectivity search
// from the base station — over 240 connected sensors.
func BenchmarkSampleTrace(b *testing.B) {
	w := samplingBenchWorld(b, false)
	defer w.Release()
	var s core.TraceSample
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.SampleTrace(&s)
	}
	b.ReportMetric(float64(s.Connected), "connected")
}
