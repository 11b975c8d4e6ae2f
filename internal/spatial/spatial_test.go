package spatial

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"mobisense/internal/geom"
)

func TestInsertAndQuery(t *testing.T) {
	ix := New(10, 8)
	ix.Insert(0, geom.V(5, 5))
	ix.Insert(1, geom.V(8, 5))
	ix.Insert(2, geom.V(50, 50))

	got := ix.Neighbors(geom.V(5, 5), 5)
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("Neighbors = %v, want [0 1]", got)
	}
	got = ix.Neighbors(geom.V(5, 5), 1)
	if !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Neighbors = %v, want [0]", got)
	}
	if got := ix.Neighbors(geom.V(100, 100), 10); len(got) != 0 {
		t.Errorf("Neighbors far away = %v, want none", got)
	}
}

func TestBoundaryRadius(t *testing.T) {
	ix := New(10, 4)
	ix.Insert(0, geom.V(0, 0))
	ix.Insert(1, geom.V(10, 0))
	// Exactly at radius: included.
	if got := ix.Neighbors(geom.V(0, 0), 10); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("Neighbors = %v, want [0 1]", got)
	}
	if got := ix.Neighbors(geom.V(0, 0), 9.999); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Neighbors = %v, want [0]", got)
	}
}

func TestMoveUpdatesCell(t *testing.T) {
	ix := New(10, 4)
	ix.Insert(0, geom.V(5, 5))
	ix.Insert(0, geom.V(95, 95)) // move far away
	if got := ix.Neighbors(geom.V(5, 5), 8); len(got) != 0 {
		t.Errorf("stale index entry: %v", got)
	}
	if got := ix.Neighbors(geom.V(95, 95), 1); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("moved entry missing: %v", got)
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d, want 1", ix.Len())
	}
}

func TestRemove(t *testing.T) {
	ix := New(10, 4)
	ix.Insert(3, geom.V(1, 1))
	ix.Remove(3)
	if got := ix.Neighbors(geom.V(1, 1), 5); len(got) != 0 {
		t.Errorf("removed entry still found: %v", got)
	}
	if _, ok := ix.Position(3); ok {
		t.Error("Position should report absence after Remove")
	}
	ix.Remove(3)  // double remove is a no-op
	ix.Remove(99) // unknown ID is a no-op
}

func TestPosition(t *testing.T) {
	ix := New(10, 4)
	ix.Insert(2, geom.V(7, 8))
	p, ok := ix.Position(2)
	if !ok || !p.Eq(geom.V(7, 8)) {
		t.Errorf("Position = %v, %v", p, ok)
	}
	if _, ok := ix.Position(0); ok {
		t.Error("unset ID should be absent")
	}
	if _, ok := ix.Position(-1); ok {
		t.Error("negative ID should be absent")
	}
}

func TestNegativeCoordinates(t *testing.T) {
	ix := New(10, 4)
	ix.Insert(0, geom.V(-15, -25))
	if got := ix.Neighbors(geom.V(-15, -25), 1); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("negative coords: %v", got)
	}
}

// Property: index queries agree with brute force under random insert /
// move / remove workloads.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	ix := New(25, 64)
	type entry struct {
		p     geom.Vec
		alive bool
	}
	truth := make([]entry, 64)

	for step := 0; step < 2000; step++ {
		id := rng.IntN(64)
		switch rng.IntN(3) {
		case 0, 1: // insert / move
			p := geom.V(rng.Float64()*500-100, rng.Float64()*500-100)
			ix.Insert(id, p)
			truth[id] = entry{p: p, alive: true}
		case 2: // remove
			ix.Remove(id)
			truth[id].alive = false
		}
		// Verify a random query.
		q := geom.V(rng.Float64()*500-100, rng.Float64()*500-100)
		r := rng.Float64() * 80
		var want []int
		for i, e := range truth {
			if e.alive && e.p.Dist(q) <= r {
				want = append(want, i)
			}
		}
		got := ix.Neighbors(q, r)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: query %v r=%v: got %v want %v", step, q, r, got, want)
		}
	}
}

func TestZeroCellSizeDefaults(t *testing.T) {
	ix := New(0, 1)
	ix.Insert(0, geom.V(1, 1))
	if got := ix.Neighbors(geom.V(1, 1), 0.5); len(got) != 1 {
		t.Errorf("got %v", got)
	}
}

// Property: a bounded index returns the same results AND the same
// iteration order as the unbounded map-backed mode under random
// insert / move / remove workloads, including points that stray outside
// the declared bounds (overflow cells).
func TestBoundedMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 14))
	bounds := geom.R(0, 0, 400, 300)
	bi := NewBounded(25, bounds, 64)
	ui := New(25, 64)
	for step := 0; step < 3000; step++ {
		id := rng.IntN(48)
		switch rng.IntN(3) {
		case 0, 1:
			p := geom.V(rng.Float64()*600-100, rng.Float64()*500-100)
			bi.Insert(id, p)
			ui.Insert(id, p)
		case 2:
			bi.Remove(id)
			ui.Remove(id)
		}
		q := geom.V(rng.Float64()*600-100, rng.Float64()*500-100)
		r := rng.Float64() * 90
		gotB := bi.AppendWithin(nil, -1, q, r)
		gotU := ui.AppendWithin(nil, -1, q, r)
		if !reflect.DeepEqual(gotB, gotU) {
			t.Fatalf("step %d: iteration order diverged: bounded %v unbounded %v", step, gotB, gotU)
		}
	}
	if bi.Len() != ui.Len() {
		t.Fatalf("Len diverged: %d vs %d", bi.Len(), ui.Len())
	}
}

func TestAppendWithinSkip(t *testing.T) {
	ix := NewBounded(10, geom.R(0, 0, 100, 100), 8)
	ix.Insert(0, geom.V(5, 5))
	ix.Insert(1, geom.V(6, 5))
	ix.Insert(2, geom.V(7, 5))
	if got := ix.AppendWithin(nil, 1, geom.V(6, 5), 5); !slices.Equal(got, []int32{0, 2}) {
		t.Errorf("AppendWithin skipping 1 = %v, want [0 2]", got)
	}
	if got := ix.AppendWithin(nil, -1, geom.V(6, 5), 5); len(got) != 3 {
		t.Errorf("negative skip should exclude nothing: %v", got)
	}
	// The result extends dst in place.
	dst := []int32{7}
	if got := ix.AppendWithin(dst, 0, geom.V(6, 5), 5); !slices.Equal(got, []int32{7, 1, 2}) {
		t.Errorf("AppendWithin onto [7] = %v, want [7 1 2]", got)
	}
}

// refWithin is the per-cell reference for AppendWithin: every cell of
// the query window, rows bottom-up and cells left to right, each looked
// up through cellElems.
func refWithin(ix *Index, skip int, p geom.Vec, r float64) []int32 {
	var out []int32
	r2 := r * r
	lo := ix.key(geom.V(p.X-r, p.Y-r))
	hi := ix.key(geom.V(p.X+r, p.Y+r))
	for cy := lo.y; cy <= hi.y; cy++ {
		for cx := lo.x; cx <= hi.x; cx++ {
			for _, id := range ix.cellElems(cellKey{cx, cy}) {
				if id != int32(skip) && ix.pos[id].Dist2(p) <= r2 {
					out = append(out, id)
				}
			}
		}
	}
	return out
}

// TestAppendWithinMatchesPerCellReference: the dense-row kernel returns
// the same IDs in the same order as the per-cell reference, for query
// windows inside the dense grid, straddling its edge (margin cells and
// overflow cells together) and wholly outside it, under random
// insert / move / remove traffic that keeps the cells' slot order
// churning.
func TestAppendWithinMatchesPerCellReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1406, 2))
	bounds := geom.R(0, 0, 400, 300)
	ix := NewBounded(25, bounds, 96)
	var inside, straddle, outside int
	for step := 0; step < 4000; step++ {
		id := rng.IntN(96)
		if rng.IntN(4) == 0 {
			ix.Remove(id)
		} else {
			ix.Insert(id, geom.V(rng.Float64()*600-100, rng.Float64()*500-100))
		}
		var q geom.Vec
		var r float64
		switch rng.IntN(3) {
		case 0: // well inside the bounds
			q = geom.V(60+rng.Float64()*280, 60+rng.Float64()*180)
			r = rng.Float64() * 50
		case 1: // near an edge
			q = geom.V(rng.Float64()*440-20, []float64{-10, 5, 295, 310}[rng.IntN(4)])
			r = rng.Float64() * 70
		default: // far outside
			q = geom.V(-90+rng.Float64()*20, -90+rng.Float64()*20)
			r = rng.Float64() * 30
		}
		lo, hi := ix.key(geom.V(q.X-r, q.Y-r)), ix.key(geom.V(q.X+r, q.Y+r))
		switch in := func(k cellKey) bool { return ix.denseIdx(k) >= 0 }; {
		case in(lo) && in(hi):
			inside++
		case in(lo) || in(hi):
			straddle++
		default:
			outside++
		}
		skip := rng.IntN(97) - 1
		if got, want := ix.AppendWithin(nil, skip, q, r), refWithin(ix, skip, q, r); !slices.Equal(got, want) {
			t.Fatalf("step %d: query %v r=%v skip %d: AppendWithin %v, per-cell %v", step, q, r, skip, got, want)
		}
	}
	if inside == 0 || straddle == 0 || outside == 0 {
		t.Fatalf("window mix inside/straddling/outside = %d/%d/%d, want all > 0", inside, straddle, outside)
	}
}

// TestDenseBucketGrowth crams many points into one cell to force arena
// block growth and freelist reuse, then migrates them to verify
// swap-remove bookkeeping in the dense path.
func TestDenseBucketGrowth(t *testing.T) {
	ix := NewBounded(50, geom.R(0, 0, 200, 200), 4)
	const n = 120
	for i := 0; i < n; i++ {
		ix.Insert(i, geom.V(10+float64(i)*0.01, 10))
	}
	if got := len(ix.Neighbors(geom.V(10, 10), 5)); got != n {
		t.Fatalf("crowded cell query = %d, want %d", got, n)
	}
	// Migrate everyone to another cell; old blocks go to the freelist.
	for i := 0; i < n; i++ {
		ix.Insert(i, geom.V(150+float64(i)*0.01, 150))
	}
	if got := len(ix.Neighbors(geom.V(10, 10), 5)); got != 0 {
		t.Fatalf("stale entries after migration: %d", got)
	}
	if got := len(ix.Neighbors(geom.V(150, 150), 5)); got != n {
		t.Fatalf("migrated cell query = %d, want %d", got, n)
	}
}

// TestPooledReshapeAcrossModes releases a bounded index and reuses the
// pooled object as unbounded (and vice versa), checking no stale state
// leaks through the pool.
func TestPooledReshapeAcrossModes(t *testing.T) {
	a := NewBounded(10, geom.R(0, 0, 100, 100), 8)
	a.Insert(0, geom.V(5, 5))
	a.Insert(1, geom.V(95, 95))
	a.Release()

	b := New(20, 8)
	if got := b.Neighbors(geom.V(5, 5), 50); len(got) != 0 {
		t.Fatalf("pooled reuse leaked entries: %v", got)
	}
	b.Insert(2, geom.V(5, 5))
	if got := b.Neighbors(geom.V(5, 5), 1); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("unbounded reuse query = %v", got)
	}
	b.Release()

	c := NewBounded(5, geom.R(-50, -50, 50, 50), 8)
	if got := c.Neighbors(geom.V(5, 5), 100); len(got) != 0 {
		t.Fatalf("pooled reuse leaked entries: %v", got)
	}
	c.Insert(3, geom.V(-40, -40))
	if got := c.Neighbors(geom.V(-40, -40), 1); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("reshaped bounded query = %v", got)
	}
	c.Release()
}

// BenchmarkInsertMoveQuery measures the steady-state cost of the
// simulator's per-period index traffic on a bounded index.
func BenchmarkInsertMoveQuery(b *testing.B) {
	bounds := geom.R(0, 0, 800, 600)
	rng := rand.New(rand.NewPCG(7, 7))
	pts := make([]geom.Vec, 200)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*800, rng.Float64()*600)
	}
	ix := NewBounded(50, bounds, len(pts))
	for i, p := range pts {
		ix.Insert(i, p)
	}
	// A buffer sized for every point keeps the measured loop free of
	// growth allocations, as the world's reused scratch is in a run.
	buf := make([]int32, 0, len(pts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % len(pts)
		p := pts[id]
		p.X += 1.5
		if p.X > 800 {
			p.X -= 800
		}
		pts[id] = p
		ix.Insert(id, p)
		buf = ix.AppendWithin(buf[:0], id, p, 50)
	}
}

// TestTakeWithinMatchesNeighbors: TakeWithin returns exactly the points
// Neighbors reports, and removes them, in both dense and overflow
// cells.
func TestTakeWithinMatchesNeighbors(t *testing.T) {
	rng := rand.New(rand.NewPCG(1205, 1))
	for trial := 0; trial < 50; trial++ {
		ix := NewBounded(20, geom.R(0, 0, 200, 200), 64)
		for id := 0; id < 80; id++ {
			// A quarter of the points fall outside the bounds, into the
			// overflow map.
			ix.Insert(id, geom.V(rng.Float64()*300-50, rng.Float64()*300-50))
		}
		for q := 0; q < 10; q++ {
			p := geom.V(rng.Float64()*300-50, rng.Float64()*300-50)
			r := rng.Float64() * 40
			want := ix.Neighbors(p, r)
			before := ix.Len()
			got := ix.TakeWithin(p, r, nil)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: TakeWithin = %v, Neighbors = %v", trial, got, want)
			}
			if ix.Len() != before-len(got) || len(ix.Neighbors(p, r)) != 0 {
				t.Fatalf("trial %d: taken points still indexed", trial)
			}
			for _, id := range got {
				if _, ok := ix.Position(id); ok {
					t.Fatalf("trial %d: id %d still present", trial, id)
				}
			}
		}
		ix.Release()
	}
}
