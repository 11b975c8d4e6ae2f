package field

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"mobisense/internal/geom"
)

// These tests pin FreeMask and the run-joining connectivity check to the
// per-cell code they replace, which lives on here as their oracles.

// perCellFreeMask is the per-cell loop FreeMask replaces: Contains and
// Free at every cell centre of the grid.
func perCellFreeMask(f *Field, res float64, nx, ny int) []bool {
	free := make([]bool, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			p := f.cellCentre(res, ix, iy)
			free[iy*nx+ix] = f.bounds.Contains(p) && f.Free(p)
		}
	}
	return free
}

// dfsConnected is the flood freeSpaceConnected replaces: it flood-fills
// the per-cell free grid from the free cell nearest the reference point
// and reports whether the fill reaches every free cell.
func dfsConnected(f *Field, res float64, nx, ny int) bool {
	startX := min(max(int((f.reference.X-f.bounds.Min.X)/res), 0), nx-1)
	startY := min(max(int((f.reference.Y-f.bounds.Min.Y)/res), 0), ny-1)
	return floodReachesAll(perCellFreeMask(f, res, nx, ny), nx, ny, startX, startY)
}

// floodReachesAll starts at the free cell nearest (startX, startY), ring
// by ring, and reports whether a 4-connected depth-first fill from it
// reaches every free cell of the nx×ny grid.
func floodReachesAll(free []bool, nx, ny, startX, startY int) bool {
	idx := func(ix, iy int) int { return iy*nx + ix }
	nFree := 0
	for _, ok := range free {
		if ok {
			nFree++
		}
	}
	if nFree == 0 {
		return false
	}
	start := -1
	for r := 0; r < nx+ny && start < 0; r++ {
		for iy := max(0, startY-r); iy <= min(ny-1, startY+r) && start < 0; iy++ {
			for ix := max(0, startX-r); ix <= min(nx-1, startX+r); ix++ {
				if free[idx(ix, iy)] {
					start = idx(ix, iy)
					break
				}
			}
		}
	}
	if start < 0 {
		return false
	}
	visited := make([]bool, nx*ny)
	stack := []int{start}
	visited[start] = true
	reached := 0
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		reached++
		cx, cy := cur%nx, cur/nx
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			x, y := cx+d[0], cy+d[1]
			if x < 0 || x >= nx || y < 0 || y >= ny {
				continue
			}
			if ni := idx(x, y); free[ni] && !visited[ni] {
				visited[ni] = true
				stack = append(stack, ni)
			}
		}
	}
	return reached == nFree
}

// star is a simple, non-convex polygon: n spikes of radius r1 with
// notches of radius r0 between them.
func star(c geom.Vec, r0, r1 float64, n int, rot float64) geom.Polygon {
	poly := make(geom.Polygon, 0, 2*n)
	for k := 0; k < 2*n; k++ {
		r := r1
		if k%2 == 1 {
			r = r0
		}
		ang := rot + math.Pi*float64(k)/float64(n)
		poly = append(poly, geom.V(c.X+r*math.Cos(ang), c.Y+r*math.Sin(ang)))
	}
	return poly
}

// rasterFixtures are fields whose free space exercises the rasterizer's
// edge cases. Validation is skipped: the mask must match on any layout.
func rasterFixtures(t *testing.T) map[string]*Field {
	t.Helper()
	mk := func(b geom.Rect, obs ...geom.Polygon) *Field {
		f, err := New(b, obs, WithoutValidation())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	square := geom.R(0, 0, 200, 200)
	u := geom.Polygon{geom.V(20, 20), geom.V(90, 20), geom.V(90, 90), geom.V(70, 90),
		geom.V(70, 40), geom.V(40, 40), geom.V(40, 90), geom.V(20, 90)}
	l := geom.Polygon{geom.V(110, 110), geom.V(180, 110), geom.V(180, 130), geom.V(130, 130),
		geom.V(130, 190), geom.V(110, 190)}
	fixtures := map[string]*Field{
		"rectangles": mk(StandardBounds(), geom.R(100, 100, 300, 250).Polygon(), geom.R(500, 600, 900, 700).Polygon()),
		// Edges through cell centres (x.5 multiples of 5 and 2.5, 3.5
		// offsets of 7) and along cell borders.
		"edges on the grid": mk(square,
			geom.R(12.5, 7.5, 62.5, 42.5).Polygon(),
			geom.R(100, 100, 150, 120).Polygon(),
			geom.R(35, 70, 70, 105).Polygon(),
			geom.R(24.5, 150, 59.5, 185.5).Polygon()),
		// A diamond whose vertices and horizontal diagonal sit on centres.
		"vertices on centres": mk(square, geom.Polygon{geom.V(102.5, 52.5), geom.V(152.5, 102.5), geom.V(102.5, 152.5), geom.V(52.5, 102.5)}),
		"non-convex":          mk(square, u, l, star(geom.V(150, 50), 12, 40, 7, 0.3)),
		"overlapping": mk(square,
			geom.R(30, 30, 120, 80).Polygon(),
			geom.R(60, 50, 150, 140).Polygon(),
			geom.Polygon{geom.V(100, 20), geom.V(190, 60), geom.V(80, 170)},
			star(geom.V(90, 90), 20, 70, 5, 1.1)),
		// Edges a hair off the centres: on either side of the boundary
		// test's 1e-9 m margin.
		"slanted near centres": mk(square,
			geom.Polygon{geom.V(2.5, 2.5+1e-10), geom.V(197.5, 197.5+1e-10), geom.V(2.5, 197.5)},
			geom.Polygon{geom.V(102.5, 2.5-3e-9), geom.V(197.5, 97.5-3e-9), geom.V(197.5, 2.5)}),
		"bounds off the grid": mk(geom.R(-3.3, 1.7, 402.2, 311.9),
			geom.R(-50, 100, 120.2, 140).Polygon(),
			geom.R(300.05, -20, 330, 400).Polygon(),
			star(geom.V(200, 220), 15, 60, 6, 0.2)),
		"thin field": mk(geom.R(0, 0, 997.5, 13), geom.R(400, 2.5, 600, 7.5).Polygon()),
		"crossing the bounds": mk(square,
			geom.R(-40, -40, 30, 30).Polygon(),
			geom.R(150, 120, 260, 260).Polygon()),
	}
	rng := rand.New(rand.NewPCG(22, 5))
	for i, f := range randomFields(t, rng, 12) {
		fixtures["random "+string(rune('a'+i))] = f
	}
	return fixtures
}

// TestFreeMaskMatchesPerCell: FreeMask equals the per-cell Contains &&
// Free loop, cell for cell, at resolutions 2.5, 5 and 7 m and for the
// grid sizes of both callers (int(w/res)+1 and ceil(w/res)).
func TestFreeMaskMatchesPerCell(t *testing.T) {
	for name, f := range rasterFixtures(t) {
		for _, res := range []float64{2.5, 5, 7} {
			w, h := f.bounds.W(), f.bounds.H()
			for _, size := range [][2]int{
				{int(w/res) + 1, int(h/res) + 1},
				{int(math.Ceil(w / res)), int(math.Ceil(h / res))},
			} {
				nx, ny := size[0], size[1]
				got, want := f.FreeMask(res, nx, ny), perCellFreeMask(f, res, nx, ny)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s, res %g, %d×%d: cell (%d, %d) at %v: mask %v, per-cell %v",
							name, res, nx, ny, i%nx, i/nx, f.cellCentre(res, i%nx, i/nx), got[i], want[i])
					}
				}
			}
		}
	}
}

// TestConnectivityMatchesPerCellDFS: the run-joining check gives the old
// flood's verdict on random masks, on fixtures built without validation
// (connected and split ones), and on dense random layouts; and New fails
// with ErrDisconnected exactly when the flood says the field is split.
func TestConnectivityMatchesPerCellDFS(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 22))
	for trial := 0; trial < 20000; trial++ {
		nx, ny := 1+rng.IntN(12), 1+rng.IntN(12)
		density := []float64{0.3, 0.5, 0.6, 0.7, 0.9, 1}[trial%6]
		mask := make([]bool, nx*ny)
		for i := range mask {
			mask[i] = rng.Float64() < density
		}
		if got, want := oneRegion(mask, nx), floodReachesAll(mask, nx, ny, rng.IntN(nx), rng.IntN(ny)); got != want {
			t.Fatalf("%d×%d mask %v: runs say %v, flood %v", nx, ny, mask, got, want)
		}
	}

	layouts := map[string][]geom.Polygon{
		"wall":  {geom.R(500, -1, 560, 1001).Polygon()},
		"door":  {geom.R(480, 0, 520, 475).Polygon(), geom.R(480, 525, 520, 1000).Polygon()},
		"slit":  {geom.R(480, 0, 520, 500).Polygon(), geom.R(480, 501.5, 520, 1000).Polygon()},
		"chink": {geom.R(480, 0, 520, 501).Polygon(), geom.R(480, 504, 520, 1000).Polygon()},
		"pocket": {
			geom.R(300, 300, 700, 340).Polygon(), geom.R(300, 660, 700, 700).Polygon(),
			geom.R(300, 300, 340, 700).Polygon(), geom.R(660, 300, 700, 700).Polygon(),
		},
		// Free quadrants that meet only at a corner: 4-connectivity
		// splits them.
		"diagonal": {geom.R(500, 0, 1000, 500).Polygon(), geom.R(0, 500, 500, 1000).Polygon()},
		"open":     {geom.R(100, 100, 300, 250).Polygon(), star(geom.V(600, 600), 50, 200, 6, 0)},
		"spiral": {
			geom.R(100, 100, 900, 140).Polygon(), geom.R(860, 100, 900, 900).Polygon(),
			geom.R(100, 860, 900, 900).Polygon(), geom.R(100, 260, 140, 900).Polygon(),
			geom.R(100, 260, 740, 300).Polygon(),
		},
	}
	split, joined := 0, 0
	check := func(name string, obs []geom.Polygon) {
		t.Helper()
		f, err := New(StandardBounds(), obs, WithoutValidation())
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []float64{2.5, 5, 7} {
			nx, ny := int(f.bounds.W()/res)+1, int(f.bounds.H()/res)+1
			want := dfsConnected(f, res, nx, ny)
			if got := f.freeSpaceConnected(res); got != want {
				t.Fatalf("%s, res %g: runs say connected = %v, flood %v", name, res, got, want)
			}
			if want {
				joined++
			} else {
				split++
			}
			if !f.Free(f.reference) {
				continue
			}
			_, err := New(StandardBounds(), obs, WithValidationResolution(res))
			if errors.Is(err, ErrDisconnected) == want {
				t.Errorf("%s, res %g: New: %v, flood says connected = %v", name, res, err, want)
			}
		}
	}
	for name, obs := range layouts {
		check(name, obs)
	}
	for i := 0; i < 40; i++ {
		obs := make([]geom.Polygon, 4+rng.IntN(20))
		for j := range obs {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			w, h := 20+rng.Float64()*400, 20+rng.Float64()*60
			if rng.IntN(2) == 0 {
				w, h = h, w
			}
			obs[j] = geom.R(x, y, x+w, y+h).Polygon()
		}
		check("random", obs)
	}
	if split == 0 || joined == 0 {
		t.Fatalf("the layouts gave %d split and %d connected verdicts; want both", split, joined)
	}
}
