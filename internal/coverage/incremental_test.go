package coverage

import (
	"math"
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
		// Every few steps, also compare the full counts grid against the
		// per-cell reference — stronger than the fractions alone. (A
		// fresh Seed would run the same footprint-recording add as the
		// tracker under test.)
		if step%7 == 0 {
			counts, hist := refCounts(e, rs, pos, present)
			if !reflect.DeepEqual(tr.counts, counts) {
				t.Fatalf("step %d: incremental counts diverged from the per-cell reference", step)
			}
			// The incremental histogram may carry trailing zero buckets
			// from departed sensors; only the populated prefix is
			// meaningful.
			if !reflect.DeepEqual(trimHist(tr.hist), hist) {
				t.Fatalf("step %d: incremental histogram diverged from the per-cell reference", step)
			}
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
// from the pool must start from a clean slate, with a footprint arena
// sized for the new acquire — grown for a larger rs and n, reused for a
// smaller rs — and a warm move-and-read loop must allocate nothing.
func TestTrackerReacquireReset(t *testing.T) {
	rng := rand.New(rand.NewPCG(1006, 7))
	f := abRandomField(t, rng)
	e := NewEstimator(f, 10)
	positions := abPositions(rng, f, 40)

	tr := e.AcquireTracker(40, 20)
	tr.Seed(positions[:20], nil)
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

	for _, c := range []struct {
		rs float64
		n  int
	}{{75, 40}, {25, 40}} {
		tr = e.AcquireTracker(c.rs, c.n)
		pos := append([]geom.Vec(nil), positions[:c.n]...)
		present := make([]bool, c.n)
		for i := range present {
			present[i] = rng.IntN(4) != 0
		}
		tr.Seed(pos, present)
		for step := 0; step < 3*c.n; step++ {
			id := rng.IntN(c.n)
			switch rng.IntN(4) {
			case 0:
				tr.Clear(id)
				present[id] = false
			case 1:
				pos[id] = f.RandomFreePoint(rng, f.Bounds())
				tr.Set(id, pos[id])
				present[id] = true
			default:
				a := rng.Float64() * 2 * math.Pi
				pos[id] = pos[id].Add(geom.V(4*math.Cos(a), 4*math.Sin(a)))
				tr.Set(id, pos[id])
				present[id] = true
			}
		}
		counts, hist := refCounts(e, c.rs, pos, present)
		if !reflect.DeepEqual(tr.counts, counts) || !reflect.DeepEqual(trimHist(tr.hist), hist) {
			t.Fatalf("rs=%v n=%d: reacquired tracker diverged from the per-cell reference", c.rs, c.n)
		}

		home, away := pos[3], pos[3].Add(geom.V(2, 1))
		tr.Set(3, away)
		tr.Set(3, home)
		i := 0
		if allocs := testing.AllocsPerRun(100, func() {
			if i++; i%2 == 0 {
				tr.Set(3, home)
			} else {
				tr.Set(3, away)
			}
			tr.Fraction()
		}); allocs != 0 {
			t.Fatalf("rs=%v n=%d: warm move and Fraction allocate %v times, want 0", c.rs, c.n, allocs)
		}
		tr.Release()
	}
}
