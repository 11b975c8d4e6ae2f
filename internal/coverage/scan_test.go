package coverage

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// These tests pin the row-span disk scan (diskScan) to the plain per-cell
// reference it rewrites: every cell of the clamped scan window, the free
// mask, c.Dist2(p) <= rs², and Field.Visible on fields with obstacles. The
// tracker's counts and histogram must be DeepEqual to the reference's
// after seeding and after every update, and the estimator's fractions
// must equal the ones the reference counts imply.

// refCounts is the reference per-cell scan over the present sensors (a
// nil present means all), returning per-cell cover counts and the
// exact-count histogram with trailing zero buckets trimmed.
func refCounts(e *Estimator, rs float64, pos []geom.Vec, present []bool) (counts, hist []int32) {
	counts = make([]int32, len(e.free))
	los := len(e.f.Obstacles()) > 0
	rs2 := rs * rs
	for id, p := range pos {
		if present != nil && !present[id] {
			continue
		}
		w := window{ix1: e.nx - 1, iy1: e.ny - 1}
		if !e.fullWindow(rs) {
			w = e.windowAround(p, rs)
		}
		for iy := w.iy0; iy <= w.iy1; iy++ {
			for ix := w.ix0; ix <= w.ix1; ix++ {
				i := iy*e.nx + ix
				c := geom.V(e.cx[ix], e.cy[iy])
				if !e.free[i] || c.Dist2(p) > rs2 {
					continue
				}
				if los && !e.f.Visible(p, c) {
					continue
				}
				counts[i]++
			}
		}
	}
	for i, free := range e.free {
		if !free {
			continue
		}
		for int(counts[i]) >= len(hist) {
			hist = append(hist, 0)
		}
		hist[counts[i]]++
	}
	return counts, hist
}

// refFraction is KFraction as implied by the reference counts.
func refFraction(e *Estimator, counts []int32, k int) float64 {
	covered := 0
	for i, free := range e.free {
		if free && int(counts[i]) >= k {
			covered++
		}
	}
	return float64(covered) / float64(e.nFree)
}

// edgePositions returns sensor positions that stress the row-span walk:
// exactly on cell-center lines (and on cell centers), on and just outside
// the field boundary, far outside it, and inside obstacles.
func edgePositions(rng *rand.Rand, e *Estimator) []geom.Vec {
	b := e.f.Bounds()
	cx := e.cx[rng.IntN(e.nx)]
	cy := e.cy[rng.IntN(e.ny)]
	pts := []geom.Vec{
		geom.V(cx, cy),
		geom.V(cx, b.Min.Y+rng.Float64()*b.H()),
		geom.V(b.Min.X+rng.Float64()*b.W(), cy),
		geom.V(e.cx[0], e.cy[e.ny-1]),
		b.Min,
		b.Max,
		geom.V(b.Min.X, cy),
		geom.V(b.Max.X, b.Min.Y+rng.Float64()*b.H()),
		geom.V(b.Min.X-7, cy),
		geom.V(cx, b.Max.Y+13),
		geom.V(b.Min.X-500, b.Max.Y+500),
	}
	for _, ob := range e.f.Obstacles() {
		var c geom.Vec
		for _, v := range ob {
			c = c.Add(v)
		}
		pts = append(pts, c.Scale(1/float64(len(ob))))
	}
	return pts
}

// scanLayout mixes random free positions with the stress positions.
func scanLayout(rng *rand.Rand, e *Estimator, n int) []geom.Vec {
	pts := abPositions(rng, e.f, n)
	edge := edgePositions(rng, e)
	for i := range pts {
		if rng.IntN(3) == 0 {
			pts[i] = edge[rng.IntN(len(edge))]
		}
	}
	return pts
}

// checkScan compares the tracker and the estimator's scans against the
// reference for the given state.
func checkScan(t *testing.T, step string, e *Estimator, tr *Tracker, rs float64, pos []geom.Vec, present []bool) {
	t.Helper()
	counts, hist := refCounts(e, rs, pos, present)
	if !reflect.DeepEqual(tr.counts, counts) {
		t.Fatalf("%s: tracker counts differ from the per-cell reference (rs=%v)", step, rs)
	}
	if got := trimHist(tr.hist); !reflect.DeepEqual(got, hist) {
		t.Fatalf("%s: tracker histogram %v, reference %v (rs=%v)", step, got, hist, rs)
	}
	alive := make([]geom.Vec, 0, len(pos))
	for i, p := range pos {
		if present == nil || present[i] {
			alive = append(alive, p)
		}
	}
	if got, want := e.Fraction(alive, rs), refFraction(e, counts, 1); got != want {
		t.Fatalf("%s: Fraction %v, reference %v (rs=%v)", step, got, want, rs)
	}
	for k := 2; k <= 3; k++ {
		if got, want := e.KFraction(alive, rs, k), refFraction(e, counts, k); got != want {
			t.Fatalf("%s: KFraction(%d) %v, reference %v (rs=%v)", step, k, got, want, rs)
		}
	}
	cov, cov2 := e.FractionPair(alive, rs)
	if want, want2 := refFraction(e, counts, 1), refFraction(e, counts, 2); cov != want || cov2 != want2 {
		t.Fatalf("%s: FractionPair (%v, %v), reference (%v, %v) (rs=%v)", step, cov, cov2, want, want2, rs)
	}
}

// scanRadii are the sensing radii each trial covers: below one cell (and
// exactly half a cell, the distance from a cell-line sensor to the
// nearest centers), typical disks, and one spanning the full grid.
func scanRadii(rng *rand.Rand, e *Estimator) []float64 {
	b := e.f.Bounds()
	return []float64{
		0.3 * e.res,
		0.5 * e.res,
		15 + rng.Float64()*60,
		max(b.W(), b.H()) + 2*e.res,
	}
}

func TestDiskScanMatchesPerCellReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1201, 3))
	fields := []*field.Field{field.MustNew(geom.R(0, 0, 600, 400), nil)}
	for i := 0; i < 4; i++ {
		fields = append(fields, abRandomField(t, rng))
	}
	for fi, f := range fields {
		e := NewEstimator(f, 10)
		for _, rs := range scanRadii(rng, e) {
			n := 6 + rng.IntN(10)
			steps := 60
			if e.fullWindow(rs) {
				n, steps = 4, 6 // every scan visits the whole grid
			}
			pos := scanLayout(rng, e, n)
			present := make([]bool, n)
			for i := range present {
				present[i] = rng.IntN(4) != 0
			}
			tr := e.AcquireTracker(rs, n)
			tr.Seed(pos, present)
			checkScan(t, "seed", e, tr, rs, pos, present)

			edge := edgePositions(rng, e)
			for step := 0; step < steps; step++ {
				id := rng.IntN(n)
				switch rng.IntN(5) {
				case 0:
					tr.Clear(id)
					present[id] = false
				case 1:
					pos[id] = edge[rng.IntN(len(edge))]
					tr.Set(id, pos[id])
					present[id] = true
				case 2:
					pos[id] = pos[id].Add(geom.V(rng.Float64()*10-5, rng.Float64()*10-5))
					tr.Set(id, pos[id])
					present[id] = true
				case 3:
					// A traced step: at most 0.4·res, the ratio of a 2 m
					// step to a 5 m cell, from an edge or cell-line
					// position half the time, so run ends shift by zero
					// or one column and rows switch between test-free and
					// tested.
					if rng.IntN(2) == 0 {
						pos[id] = edge[rng.IntN(len(edge))]
						tr.Set(id, pos[id])
						present[id] = true
					}
					a, r := rng.Float64()*2*math.Pi, rng.Float64()*0.4*e.res
					pos[id] = pos[id].Add(geom.V(r*math.Cos(a), r*math.Sin(a)))
					tr.Set(id, pos[id])
					present[id] = true
				default:
					pos[id] = scanLayout(rng, e, 1)[0]
					tr.Set(id, pos[id])
					present[id] = true
				}
				checkScan(t, fmt.Sprintf("field %d step %d", fi, step), e, tr, rs, pos, present)
			}
			tr.Release()
		}
	}
}

// TestFixSpanAnyGuess drives the span fix-up from arbitrary guesses: the
// run it settles on must equal a brute per-column scan of the predicate
// whatever the starting columns, so the walks are exact even where the
// analytic guess is off.
func TestFixSpanAnyGuess(t *testing.T) {
	rng := rand.New(rand.NewPCG(1206, 3))
	e := NewEstimator(field.MustNew(geom.R(0, 0, 300, 200), nil), 7)
	for trial := 0; trial < 3000; trial++ {
		p := scanLayout(rng, e, 1)[0]
		if rng.IntN(3) == 0 {
			p.X = e.cx[rng.IntN(e.nx)]
		}
		rs := []float64{0.3, 0.5, 1, 2.5, 40}[rng.IntN(5)] * e.res
		d := e.scanDisk(nil, p, rs)
		for ; d.iy <= d.iy1; d.iy++ {
			cy := e.cy[d.iy]
			lo, hi := -1, -2
			for ix := d.ix0; ix <= d.ix1; ix++ {
				if d.in(ix, cy) {
					if lo < 0 {
						lo = ix
					}
					hi = ix
				}
			}
			g0 := d.ix0 + rng.IntN(d.ix1-d.ix0+1)
			g1 := d.ix0 + rng.IntN(d.ix1-d.ix0+1)
			ok := d.fixSpan(cy, g0, g1)
			if ok != (lo >= 0) || ok && (d.lo != lo || d.hi != hi) {
				t.Fatalf("p=%v rs=%v row %d guesses (%d, %d): fixSpan = %v [%d, %d], brute [%d, %d]",
					p, rs, d.iy, g0, g1, ok, d.lo, d.hi, lo, hi)
			}
		}
	}
}
