package coverage

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// The incremental engine's contract is bit-identity with the brute-force
// estimator. These tests drive randomized move/fail/recover/teleport
// sequences — including sensors crossing obstacle boundaries and leaving
// the field entirely — and A/B every resulting state against fresh
// full-scan evaluations.

// trackerState is everything a soak step asserts on: the running
// fractions and the raw per-cell counts.
type trackerState struct {
	frac  float64
	k2    float64
	k3    float64
	alive []geom.Vec
}

func trimHist(h []int32) []int32 {
	for len(h) > 0 && h[len(h)-1] == 0 {
		h = h[:len(h)-1]
	}
	return h
}

func bruteState(e *Estimator, rs float64, pos []geom.Vec, present []bool) trackerState {
	alive := make([]geom.Vec, 0, len(pos))
	for i, p := range pos {
		if present[i] {
			alive = append(alive, p)
		}
	}
	return trackerState{
		frac:  e.Fraction(alive, rs),
		k2:    e.KFraction(alive, rs, 2),
		k3:    e.KFraction(alive, rs, 3),
		alive: alive,
	}
}

// soak runs one randomized sequence against one field and fails on the
// first divergence between the incremental tracker and fresh brute-force
// evaluations.
func soak(t *testing.T, rng *rand.Rand, f *field.Field, steps int) {
	t.Helper()
	e := NewEstimator(f, 10)
	n := 6 + rng.IntN(10)
	rs := 20 + rng.Float64()*50
	b := f.Bounds()

	pos := make([]geom.Vec, n)
	present := make([]bool, n)
	for i := range pos {
		pos[i] = abPositions(rng, f, 1)[0]
		present[i] = rng.IntN(4) != 0
	}
	tr := e.AcquireTracker(rs, n)
	defer tr.Release()
	tr.Seed(pos, present)

	randomPoint := func() geom.Vec {
		switch rng.IntN(4) {
		case 0:
			// Off-field teleports and points inside obstacles: the
			// tracker must handle sensors that cover nothing.
			return geom.V(b.Min.X+rng.Float64()*3*b.W()-b.W(), b.Min.Y+rng.Float64()*3*b.H()-b.H())
		default:
			return f.RandomFreePoint(rng, b)
		}
	}

	for step := 0; step < steps; step++ {
		id := rng.IntN(n)
		switch rng.IntN(5) {
		case 0: // fail
			tr.Clear(id)
			present[id] = false
		case 1: // recover in place or at a new spot
			pos[id] = randomPoint()
			tr.Set(id, pos[id])
			present[id] = true
		case 2: // small move: disks overlap heavily across the update
			pos[id] = pos[id].Add(geom.V(rng.Float64()*10-5, rng.Float64()*10-5))
			tr.Set(id, pos[id])
			present[id] = true
		default: // teleport anywhere, possibly across obstacles / off field
			pos[id] = randomPoint()
			tr.Set(id, pos[id])
			present[id] = true
		}

		want := bruteState(e, rs, pos, present)
		if tr.Fraction() != want.frac || tr.KFraction(2) != want.k2 || tr.KFraction(3) != want.k3 {
			t.Fatalf("step %d: tracker (%v, %v, %v) != brute (%v, %v, %v) with %d alive",
				step, tr.Fraction(), tr.KFraction(2), tr.KFraction(3),
				want.frac, want.k2, want.k3, len(want.alive))
		}
		// Every few steps, also compare the full counts grid against a
		// freshly seeded tracker — stronger than the fractions alone.
		if step%7 == 0 {
			fresh := e.AcquireTracker(rs, n)
			fresh.Seed(pos, present)
			if !reflect.DeepEqual(tr.counts, fresh.counts) {
				t.Fatalf("step %d: incremental counts diverged from fresh seed", step)
			}
			// The incremental histogram may carry trailing zero buckets
			// from departed sensors; only the populated prefix is
			// meaningful.
			if !reflect.DeepEqual(trimHist(tr.hist), trimHist(fresh.hist)) {
				t.Fatalf("step %d: incremental histogram diverged from fresh seed", step)
			}
			fresh.Release()
		}
	}
}

func TestTrackerSoakObstacleFields(t *testing.T) {
	rng := rand.New(rand.NewPCG(1001, 7))
	for trial := 0; trial < 6; trial++ {
		soak(t, rng, abRandomField(t, rng), 60)
	}
}

func TestTrackerSoakFreeField(t *testing.T) {
	rng := rand.New(rand.NewPCG(1002, 7))
	f := field.MustNew(geom.R(0, 0, 700, 500), nil)
	for trial := 0; trial < 4; trial++ {
		soak(t, rng, f, 60)
	}
}

// TestExclusiveAreaBelowMatchesFull pins the early-exit variant to the
// full scan's verdict on randomized inputs, on both sides of the limit.
func TestExclusiveAreaBelowMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewPCG(1005, 7))
	for trial := 0; trial < 5; trial++ {
		f := abRandomField(t, rng)
		pts := abPositions(rng, f, 12)
		center, others := pts[0], pts[1:]
		rs := 20 + rng.Float64()*40
		full := ExclusiveArea(f, center, rs, others, rs/8)
		for _, limit := range []float64{0, full * 0.5, full, full*1.5 + 1, 1e12} {
			want := full < limit
			if got := ExclusiveAreaBelow(f, center, rs, others, rs/8, limit); got != want {
				t.Fatalf("ExclusiveAreaBelow(limit=%v) = %v, full scan says %v (area %v)", limit, got, want, full)
			}
		}
	}
}

// TestTrackerReacquireReset guards the pooling path: a tracker reused
// from the pool must start from a clean slate.
func TestTrackerReacquireReset(t *testing.T) {
	rng := rand.New(rand.NewPCG(1006, 7))
	f := abRandomField(t, rng)
	e := NewEstimator(f, 10)
	positions := abPositions(rng, f, 20)

	tr := e.AcquireTracker(40, len(positions))
	tr.Seed(positions, nil)
	tr.Release()

	tr = e.AcquireTracker(30, 5)
	if got := tr.Fraction(); got != 0 {
		t.Fatalf("reacquired tracker starts at Fraction %v, want 0", got)
	}
	tr.Set(0, positions[0])
	if got, want := tr.Fraction(), e.Fraction(positions[:1], 30); got != want {
		t.Fatalf("reacquired tracker Fraction %v != brute %v", got, want)
	}
	tr.Release()
}
