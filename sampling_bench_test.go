package mobisense

import (
	"testing"

	"mobisense/internal/core"
	"mobisense/internal/coverage"
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

// BenchmarkTrackerSeedLOS measures one full re-seed of the incremental
// coverage tracker for 240 sensors on the narrow-door field: the cost of
// every transient trace sample, where the hybrid sync re-seeds because
// most of the fleet moved.
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
