package field

import (
	"math/rand/v2"
	"testing"

	"mobisense/internal/geom"
)

// benchField is a fixed obstacle-heavy field (8 random rectangles, 56
// solid edges with the frame) for the perf-tracking kernel benchmarks.
func benchField(b *testing.B) (*Field, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewPCG(9, 9))
	f, err := RandomObstacles(rng, RandomObstacleConfig{
		MinCount:  8,
		MaxCount:  8,
		MinSide:   60,
		MaxSide:   250,
		KeepClear: 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	return f, rng
}

// BenchmarkFirstHit measures the segment-intersection kernel on an
// obstacle-heavy field: 2048 fixed queries per op, mixing long transit
// segments with short motion-step-sized ones.
func BenchmarkFirstHit(b *testing.B) {
	f, rng := benchField(b)
	segs := make([]geom.Segment, 2048)
	for i := range segs {
		a := geom.V(rng.Float64()*1000, rng.Float64()*1000)
		if i%2 == 0 {
			segs[i] = geom.Seg(a, geom.V(rng.Float64()*1000, rng.Float64()*1000))
		} else {
			segs[i] = geom.Seg(a, a.Add(geom.V(rng.Float64()*40-20, rng.Float64()*40-20)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range segs {
			f.FirstHit(s)
		}
	}
}

// BenchmarkBuildRandomField measures building the random-obstacles
// scenario's field (§6.4: 1–4 rectangles of 80–400 m on the standard
// field, with that scenario's salt) for 32 distinct seeds per op. Each
// build generates a layout, validates it and retries it when it splits
// the free space; Spec.Build has no cache, so every op does all of it.
func BenchmarkBuildRandomField(b *testing.B) {
	def := DefaultRandomObstacleConfig()
	spec := Spec{
		Bounds: RectSpec{MaxX: StandardSize, MaxY: StandardSize},
		Generator: &GeneratorSpec{MinCount: def.MinCount, MaxCount: def.MaxCount,
			MinSide: def.MinSide, MaxSide: def.MaxSide, KeepClear: def.KeepClear, Salt: 0xabcdef12345},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for seed := uint64(1); seed <= 32; seed++ {
			if _, err := spec.Build(seed); err != nil {
				b.Fatal(err)
			}
		}
	}
}
