package core

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// bruteReachable is the O(N²) reference for UnitDiskReachable: a plain
// BFS over every pair, with the same adjacency predicates (WithinDist to
// the base, squared distance between nodes).
func bruteReachable(positions []geom.Vec, base geom.Vec, radius float64) []bool {
	reached := make([]bool, len(positions))
	var queue []int
	for i, p := range positions {
		if p.WithinDist(base, radius) {
			reached[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for j, q := range positions {
			if !reached[j] && q.Dist2(positions[cur]) <= radius*radius {
				reached[j] = true
				queue = append(queue, j)
			}
		}
	}
	return reached
}

// TestUnitDiskReachableMatchesBrute compares the remove-on-reach search
// with the brute-force BFS on random layouts seeded with the degenerate
// cases: coincident points, pairs exactly radius apart, chains of exact
// hops, and sensors sitting on the base station.
func TestUnitDiskReachableMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(1204, 9))
	var search reachSearch
	for trial := 0; trial < 300; trial++ {
		radius := float64(10 + rng.IntN(60))
		side := float64(100 + rng.IntN(900))
		base := geom.V(float64(rng.IntN(int(side))), float64(rng.IntN(int(side))))
		n := rng.IntN(120)
		positions := make([]geom.Vec, 0, n)
		for len(positions) < n {
			switch k := len(positions); {
			case k > 0 && rng.IntN(6) == 0:
				positions = append(positions, positions[rng.IntN(k)]) // coincident
			case k > 0 && rng.IntN(5) == 0:
				// Exactly radius away along an axis: integer coordinates
				// keep the squared distance exact.
				p := positions[rng.IntN(k)]
				d := []geom.Vec{{X: radius}, {X: -radius}, {Y: radius}, {Y: -radius}}[rng.IntN(4)]
				positions = append(positions, p.Add(d))
			case rng.IntN(12) == 0:
				positions = append(positions, base)
			default:
				positions = append(positions, geom.V(float64(rng.IntN(int(side))), float64(rng.IntN(int(side)))))
			}
		}
		want := bruteReachable(positions, base, radius)
		if got := UnitDiskReachable(positions, base, radius); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: UnitDiskReachable differs from brute BFS (n=%d, radius=%v)", trial, n, radius)
		}
		// The reused search must give the same answer as a fresh one.
		if got := search.run(positions, base, radius); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: reused search differs from brute BFS (n=%d, radius=%v)", trial, n, radius)
		}
	}
}

// TestSampleTraceAllocationFree: after warm-up, a trace sample — layout
// plus connectivity search — allocates nothing.
func TestSampleTraceAllocationFree(t *testing.T) {
	p := DefaultParams()
	p.InitRegion = geom.R(0, 0, 500, 500)
	w, err := NewWorld(field.MustNew(field.StandardBounds(), nil), p)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Release()
	var s TraceSample
	w.SampleTrace(&s)
	if s.Connected == 0 || s.Alive != p.N {
		t.Fatalf("sample = %+v, want a populated, partly connected layout", s)
	}
	if allocs := testing.AllocsPerRun(50, func() { w.SampleTrace(&s) }); allocs != 0 {
		t.Errorf("SampleTrace allocates %v times per call after warm-up, want 0", allocs)
	}
}
