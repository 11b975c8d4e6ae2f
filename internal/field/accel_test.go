package field

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"mobisense/internal/geom"
)

// These tests pin the acceleration structure to brute-force oracles that
// scan every edge of every solid: for randomized fields and queries,
// every accelerated result must be *bit-identical* to the oracle's — the
// repo's determinism invariant. Float comparisons are deliberately exact.

// bruteFirstHit is the reference FirstHit: every solid in order, keeping
// the strictly earliest hit, so ties go to the lower solid index and,
// within a solid, to the lower edge index.
func bruteFirstHit(f *Field, s geom.Segment) (Hit, bool) {
	best := Hit{T: math.Inf(1)}
	found := false
	for i, poly := range f.all {
		t, edge, ok := poly.IntersectSegment(s)
		if ok && t < best.T {
			best = Hit{T: t, Point: s.At(t), Solid: i, Edge: edge}
			found = true
		}
	}
	if !found {
		return Hit{}, false
	}
	return best, true
}

// bruteSegmentFree is SegmentFree on bruteFirstHit.
func bruteSegmentFree(f *Field, a, b geom.Vec) bool {
	if !f.Free(a) || !f.Free(b) {
		return false
	}
	hit, ok := bruteFirstHit(f, geom.Seg(a, b))
	if !ok {
		return true
	}
	d := geom.Seg(a, b).Len()
	if hit.T*d > geom.Eps && (1-hit.T)*d > geom.Eps {
		return false
	}
	return f.Free(geom.Seg(a, b).Midpoint())
}

// bruteVisible is Visible on bruteSegmentFree.
func bruteVisible(f *Field, a, b geom.Vec) bool {
	if len(f.obstacles) == 0 {
		return f.Free(a) && f.Free(b)
	}
	return bruteSegmentFree(f, a, b)
}

// bruteBoundariesWithin is the reference BoundariesWithin: the closest
// point of every solid whose bounding box comes within r of p.
func bruteBoundariesWithin(f *Field, p geom.Vec, r float64) []BoundaryProximity {
	var out []BoundaryProximity
	for i, poly := range f.all {
		if !poly.Bounds().Expand(r).Contains(p) {
			continue
		}
		pt, edge := poly.ClosestBoundaryPoint(p)
		if d := pt.Dist(p); d <= r {
			out = append(out, BoundaryProximity{Point: pt, Dist: d, Solid: i, Edge: edge})
		}
	}
	return out
}

// bruteBoundarySegmentsWithin is the reference BoundarySegmentsWithin:
// every edge of every solid whose bounding box comes within r of p,
// clipped to the disk.
func bruteBoundarySegmentsWithin(f *Field, p geom.Vec, r float64) []BoundarySegment {
	disk := geom.Circle{C: p, R: r}
	var out []BoundarySegment
	for i, poly := range f.all {
		if !poly.Bounds().Expand(r).Contains(p) {
			continue
		}
		for e := 0; e < poly.NumEdges(); e++ {
			edge := poly.Edge(e)
			t0, t1, ok := disk.IntersectSegment(edge)
			if !ok || t1-t0 < geom.Eps {
				continue
			}
			out = append(out, BoundarySegment{
				Seg:   geom.Seg(edge.At(t0), edge.At(t1)),
				Solid: i,
				Edge:  e,
			})
		}
	}
	return out
}

// denseRandomField builds a seeded random rectangular-obstacle field
// denser than the §6.4 default, to exercise the grid with many edges.
func denseRandomField(t *testing.T, rng *rand.Rand) *Field {
	t.Helper()
	f, err := RandomObstacles(rng, RandomObstacleConfig{
		MinCount:  4,
		MaxCount:  10,
		MinSide:   60,
		MaxSide:   300,
		KeepClear: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// skewRandomField builds a field of random triangles and rotated quads,
// so the arena holds non-axis-aligned edges (the rectangle generator
// only produces axis-aligned ones). Validation is skipped: disconnected
// free space is irrelevant to geometry-query equivalence.
func skewRandomField(t *testing.T, rng *rand.Rand) *Field {
	t.Helper()
	n := 3 + rng.IntN(5)
	obstacles := make([]geom.Polygon, 0, n)
	for i := 0; i < n; i++ {
		cx := 100 + rng.Float64()*800
		cy := 100 + rng.Float64()*800
		r := 40 + rng.Float64()*120
		rot := rng.Float64() * 2 * math.Pi
		sides := 3 + rng.IntN(3)
		poly := make(geom.Polygon, 0, sides)
		for k := 0; k < sides; k++ {
			ang := rot + 2*math.Pi*float64(k)/float64(sides)
			poly = append(poly, geom.V(cx+r*math.Cos(ang), cy+r*math.Sin(ang)))
		}
		obstacles = append(obstacles, poly)
	}
	f, err := New(StandardBounds(), obstacles, WithoutValidation())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// randomFields yields a mixed bag of seeded random fields.
func randomFields(t *testing.T, rng *rand.Rand, n int) []*Field {
	t.Helper()
	fields := make([]*Field, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			fields = append(fields, skewRandomField(t, rng))
		} else {
			fields = append(fields, denseRandomField(t, rng))
		}
	}
	return fields
}

// randomSegment samples query endpoints, occasionally off-field (to hit
// the frame polygons) and occasionally degenerate.
func randomSegment(rng *rand.Rand) geom.Segment {
	pt := func() geom.Vec { return geom.V(rng.Float64()*1200-100, rng.Float64()*1200-100) }
	a := pt()
	switch rng.IntN(10) {
	case 0:
		return geom.Seg(a, a) // degenerate
	case 1:
		return geom.Seg(a, a.Add(geom.V(rng.Float64()*4-2, rng.Float64()*4-2))) // very short
	default:
		return geom.Seg(a, pt())
	}
}

func TestAccelFirstHitMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(2024, 9))
	for fi, f := range randomFields(t, rng, 12) {
		segs := make([]geom.Segment, 80)
		for i := range segs {
			segs[i] = randomSegment(rng)
		}
		for qi, s := range segs {
			fast, fastOK := f.FirstHit(s)
			slow, slowOK := bruteFirstHit(f, s)
			if fastOK != slowOK || fast != slow {
				t.Fatalf("field %d query %d (%v): accel (%+v, %v) != brute (%+v, %v)",
					fi, qi, s, fast, fastOK, slow, slowOK)
			}
		}
	}
}

func TestAccelSegmentFreeVisibleMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 64))
	for fi, f := range randomFields(t, rng, 10) {
		for qi := 0; qi < 80; qi++ {
			s := randomSegment(rng)
			fastSF := f.SegmentFree(s.A, s.B)
			fastV := f.Visible(s.A, s.B)
			slowSF := bruteSegmentFree(f, s.A, s.B)
			slowV := bruteVisible(f, s.A, s.B)
			if fastSF != slowSF || fastV != slowV {
				t.Fatalf("field %d query %d (%v): SegmentFree %v/%v Visible %v/%v",
					fi, qi, s, fastSF, slowSF, fastV, slowV)
			}
		}
	}
}

func TestAccelBoundariesMatchBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 5))
	radii := []float64{5, 30, 100, 400}
	for fi, f := range randomFields(t, rng, 10) {
		for qi := 0; qi < 60; qi++ {
			p := geom.V(rng.Float64()*1200-100, rng.Float64()*1200-100)
			r := radii[rng.IntN(len(radii))]

			fastBW := f.BoundariesWithin(p, r)
			fastBS := f.BoundarySegmentsWithin(p, r)
			slowBW := bruteBoundariesWithin(f, p, r)
			slowBS := bruteBoundarySegmentsWithin(f, p, r)
			if !reflect.DeepEqual(fastBW, slowBW) {
				t.Fatalf("field %d query %d: BoundariesWithin(%v, %v) accel %+v != brute %+v", fi, qi, p, r, fastBW, slowBW)
			}
			if !reflect.DeepEqual(fastBS, slowBS) {
				t.Fatalf("field %d query %d: BoundarySegmentsWithin(%v, %v) accel %+v != brute %+v", fi, qi, p, r, fastBS, slowBS)
			}
		}
	}
}

func TestDiskProbeVisibleFreeMatchesVisible(t *testing.T) {
	rng := rand.New(rand.NewPCG(88, 11))
	var sc ProbeScratch
	for fi, f := range randomFields(t, rng, 10) {
		for ci := 0; ci < 15; ci++ {
			center := f.RandomFreePoint(rng, f.Bounds())
			rs := 20 + rng.Float64()*80
			probe := f.DiskProbe(&sc, center, rs)
			tested := 0
			for qi := 0; qi < 200 && tested < 40; qi++ {
				// Sample a free in-disk point; VisibleFree's contract
				// requires free endpoints inside the probe disk.
				ang := rng.Float64() * 2 * math.Pi
				rad := rng.Float64() * rs
				b := center.Add(geom.V(rad*math.Cos(ang), rad*math.Sin(ang)))
				if !f.Free(b) {
					continue
				}
				tested++
				fast := probe.VisibleFree(center, b)
				slow := bruteVisible(f, center, b)
				if fast != slow {
					t.Fatalf("field %d center %v rs %v -> %v: VisibleFree %v != Visible %v",
						fi, center, rs, b, fast, slow)
				}
			}
		}
	}
}

// TestProbeRowVisibleFreeMatchesVisible pins the row-narrowed probe: for
// random free pairs inside a disk, Row(a.Y, b.Y).VisibleFree(a, b) must
// equal bruteVisible(a, b). Pairs include horizontal
// segments and endpoints snapped to obstacle vertex y coordinates, where
// an edge's padded y-extent just touches the row band.
func TestProbeRowVisibleFreeMatchesVisible(t *testing.T) {
	rng := rand.New(rand.NewPCG(1203, 5))
	var sc ProbeScratch
	for fi, f := range randomFields(t, rng, 9) {
		var ys []float64
		for _, ob := range f.Obstacles() {
			for _, v := range ob {
				ys = append(ys, v.Y)
			}
		}
		inDisk := func(center geom.Vec, r float64) (geom.Vec, bool) {
			ang := rng.Float64() * 2 * math.Pi
			rad := rng.Float64() * r
			p := center.Add(geom.V(rad*math.Cos(ang), rad*math.Sin(ang)))
			if rng.IntN(4) == 0 {
				// Snap y to an obstacle vertex (or its padded band edge),
				// keeping the point in the disk.
				y := ys[rng.IntN(len(ys))] + []float64{0, accelPad, -accelPad}[rng.IntN(3)]
				if dy := y - center.Y; dy*dy < r*r {
					p.Y = y
					if dx := p.X - center.X; dx*dx+dy*dy > r*r {
						p.X = center.X
					}
				}
			}
			return p, f.Free(p)
		}
		for ci := 0; ci < 12; ci++ {
			center := f.RandomFreePoint(rng, f.Bounds())
			rs := 20 + rng.Float64()*80
			probe := f.DiskProbe(&sc, center, rs)
			for tested := 0; tested < 60; {
				a, okA := inDisk(center, rs)
				b, okB := inDisk(center, rs)
				if !okA || !okB {
					continue
				}
				if rng.IntN(5) == 0 {
					b.Y = a.Y
					if !f.Free(b) || b.Dist(center) > rs {
						continue
					}
				}
				tested++
				row := probe.Row(a.Y, b.Y)
				got := row.VisibleFree(a, b)
				want := bruteVisible(f, a, b)
				if got != want {
					t.Fatalf("field %d disk %v/%v: Row(%v, %v).VisibleFree(%v, %v) = %v, Visible = %v",
						fi, center, rs, a.Y, b.Y, a, b, got, want)
				}
				if full := probe.VisibleFree(a, b); full != want {
					t.Fatalf("field %d: disk probe VisibleFree changed after Row: %v, want %v", fi, full, want)
				}
			}
		}
	}
}

// TestProbeRowXRejectMatchesVisible is the oracle of the x-half reject
// (Probe.XReject). Sensors sit on and near obstacle corners and edges,
// nudged by the padding and by less than a rounding step, or a few cells
// away from them; row and column centers run through obstacle vertex
// coordinates and the sensor's own x. On every row of the disk:
//   - each free cell the reject clears must be bruteVisible, and
//     VisibleFree on the row probe must agree;
//   - the columns it leaves to a test must be a prefix of those left of
//     the sensor and a suffix of those right of it;
//   - a row whose run is clear at both ends must see every free cell of
//     the run.
func TestProbeRowXRejectMatchesVisible(t *testing.T) {
	rng := rand.New(rand.NewPCG(1501, 5))
	var sc ProbeScratch
	nudges := []float64{0, 0, accelPad, -accelPad, 2 * accelPad, -2 * accelPad, 1e-12, -1e-12, 0.5, -0.5}
	nudge := func() float64 { return nudges[rng.IntN(len(nudges))] }
	cleared, tested, demoted := 0, 0, 0
	for fi, f := range randomFields(t, rng, 9) {
		obs := f.Obstacles()
		for sensors := 0; sensors < 40; {
			ob := obs[rng.IntN(len(obs))]
			k := rng.IntN(len(ob))
			p := ob[k]
			if rng.IntN(2) == 0 {
				p = p.Add(ob[(k+1)%len(ob)].Sub(p).Scale(rng.Float64()))
			}
			p = p.Add(geom.V(nudge(), nudge()))
			if rng.IntN(3) == 0 {
				// Clear of the edges by a few cells, where whole rows
				// are demoted.
				p = p.Add(geom.V(rng.Float64()*40-20, rng.Float64()*40-20))
			}
			if !f.Free(p) {
				continue
			}
			sensors++
			rs := 10 + rng.Float64()*50
			res := 2 + rng.Float64()*6
			gx, gy := p.X, p.Y
			if rng.IntN(3) != 0 {
				v := obs[rng.IntN(len(obs))]
				gx = v[rng.IntN(len(v))].X + nudge()
			}
			if rng.IntN(3) != 0 {
				v := obs[rng.IntN(len(obs))]
				gy = v[rng.IntN(len(v))].Y + nudge()
			}
			probe := f.DiskProbe(&sc, p, rs)
			for j := math.Ceil((p.Y - rs - gy) / res); gy+j*res <= p.Y+rs; j++ {
				y := gy + j*res
				row := probe.Row(p.Y, y)
				xr := row.XReject(p.X)
				var run []geom.Vec
				for i := math.Ceil((p.X - rs - gx) / res); gx+i*res <= p.X+rs; i++ {
					if c := geom.V(gx+i*res, y); c.Dist2(p) <= rs*rs {
						run = append(run, c)
					}
				}
				if len(run) == 0 {
					continue
				}
				leftClear, rightTested := false, false
				for _, c := range run {
					clear := xr.Clear(c.X)
					if c.X < p.X {
						if leftClear && !clear {
							t.Fatalf("field %d sensor %v row y=%v: left column %v needs a test after a clear one", fi, p, y, c.X)
						}
						leftClear = leftClear || clear
					} else {
						if rightTested && clear {
							t.Fatalf("field %d sensor %v row y=%v: right column %v clear after one that needs a test", fi, p, y, c.X)
						}
						rightTested = rightTested || !clear
					}
					if !clear {
						tested++
						continue
					}
					if !f.Free(c) {
						continue
					}
					cleared++
					if !bruteVisible(f, p, c) {
						t.Fatalf("field %d sensor %v rs %v: XReject clears %v, which bruteVisible blocks", fi, p, rs, c)
					}
					if !row.VisibleFree(p, c) {
						t.Fatalf("field %d sensor %v: XReject clears %v, which VisibleFree blocks", fi, p, c)
					}
				}
				if row.TriviallyVisible() || !xr.Clear(run[0].X) || !xr.Clear(run[len(run)-1].X) {
					continue
				}
				demoted++
				for _, c := range run {
					if f.Free(c) && !bruteVisible(f, p, c) {
						t.Fatalf("field %d sensor %v: row y=%v is clear at both ends, but bruteVisible blocks %v", fi, p, y, c)
					}
				}
			}
		}
	}
	if cleared == 0 || tested == 0 || demoted == 0 {
		t.Fatalf("inputs too easy: %d cleared free cells, %d tested columns, %d demoted rows", cleared, tested, demoted)
	}
	t.Logf("%d cleared free cells, %d tested columns, %d demoted rows", cleared, tested, demoted)
}
