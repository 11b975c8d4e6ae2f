// Package coverage measures sensing coverage: the fraction of the free
// (non-obstacle) field area covered by at least one sensing disk (§4.3's
// metric), plus the exclusive-coverage estimate used by FLOOR's
// movable-sensor test (§5.3).
package coverage

import (
	"math"
	"sync"
	"sync/atomic"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// Estimator measures coverage on a fixed grid over a field. Construct once
// per field/resolution and reuse; the free-space mask is precomputed.
//
// Estimators are safe for concurrent use: each evaluation borrows an
// epoch-stamped scratch grid from an internal pool, so repeated calls
// allocate nothing in the steady state even when many sweep workers share
// one estimator.
type Estimator struct {
	f      *field.Field
	res    float64
	nx     int
	ny     int
	cx     []float64 // precomputed cell-center x per column
	cy     []float64 // precomputed cell-center y per row
	x0     float64   // field bounds' min x, the grid's left edge
	invRes float64   // 1/res, for column guesses (never for predicates)
	free   []bool
	nFree  int

	// pinned is a single pre-allocated scratch slot so the common case —
	// one evaluation at a time per estimator — never touches the pool.
	// sync.Pool may drop its contents at any GC, which shows up as a
	// ~240 KB re-allocation on the next call; the pinned slot makes
	// Fraction/KFraction deterministically allocation-free even for a
	// cold first call. Concurrent evaluations overflow into the pool.
	pinned   atomic.Pointer[gridScratch]
	scratch  sync.Pool // *gridScratch
	trackers sync.Pool // *Tracker
}

// gridScratch is a reusable evaluation grid. Instead of clearing nx*ny
// cells between calls, each call bumps the epoch; a cell is "set" when its
// stamp equals the current epoch. counts carries the per-cell disk counts
// for KFraction, valid only where the stamp is current. The probe scratch
// backs the per-sensor line-of-sight probes, so they allocate nothing in
// the steady state either.
type gridScratch struct {
	epoch  uint32
	stamps []uint32
	counts []int16
	probe  field.ProbeScratch
}

// next prepares the scratch for a fresh evaluation in O(1), falling back
// to an O(n) clear only when the 32-bit epoch wraps.
func (g *gridScratch) next() {
	g.epoch++
	if g.epoch == 0 {
		clear(g.stamps)
		g.epoch = 1
	}
}

// NewEstimator builds an estimator with the given grid resolution in
// meters. Smaller resolutions cost quadratically more per evaluation.
func NewEstimator(f *field.Field, res float64) *Estimator {
	if res <= 0 {
		res = 5
	}
	b := f.Bounds()
	e := &Estimator{
		f:      f,
		res:    res,
		nx:     int(math.Ceil(b.W() / res)),
		ny:     int(math.Ceil(b.H() / res)),
		x0:     b.Min.X,
		invRes: 1 / res,
	}
	e.cx = make([]float64, e.nx)
	for ix := range e.cx {
		e.cx[ix] = b.Min.X + (float64(ix)+0.5)*res
	}
	e.cy = make([]float64, e.ny)
	for iy := range e.cy {
		e.cy[iy] = b.Min.Y + (float64(iy)+0.5)*res
	}
	e.free = f.FreeMask(res, e.nx, e.ny)
	for _, free := range e.free {
		if free {
			e.nFree++
		}
	}
	e.scratch.New = func() any {
		return &gridScratch{
			stamps: make([]uint32, len(e.free)),
			counts: make([]int16, len(e.free)),
		}
	}
	e.pinned.Store(e.scratch.New().(*gridScratch))
	return e
}

// getScratch borrows an evaluation grid, preferring the pinned slot.
func (e *Estimator) getScratch() *gridScratch {
	if g := e.pinned.Swap(nil); g != nil {
		return g
	}
	return e.scratch.Get().(*gridScratch)
}

// putScratch returns a grid borrowed with getScratch.
func (e *Estimator) putScratch(g *gridScratch) {
	if e.pinned.CompareAndSwap(nil, g) {
		return
	}
	e.scratch.Put(g)
}

// Resolution returns the grid resolution.
func (e *Estimator) Resolution() float64 { return e.res }

// FreeArea returns the estimated free (non-obstacle) area of the field.
func (e *Estimator) FreeArea() float64 {
	return float64(e.nFree) * e.res * e.res
}

// window is the clamped scan rectangle of grid cells a disk can touch.
type window struct{ ix0, ix1, iy0, iy1 int }

// fullWindow reports whether rs is so large that every position's scan
// window spans the whole grid, letting callers clamp once instead of per
// position.
func (e *Estimator) fullWindow(rs float64) bool {
	b := e.f.Bounds()
	return rs >= b.W()+e.res && rs >= b.H()+e.res
}

func (e *Estimator) windowAround(p geom.Vec, rs float64) window {
	b := e.f.Bounds()
	return window{
		ix0: clamp(int((p.X-rs-b.Min.X)/e.res), 0, e.nx-1),
		ix1: clamp(int((p.X+rs-b.Min.X)/e.res), 0, e.nx-1),
		iy0: clamp(int((p.Y-rs-b.Min.Y)/e.res), 0, e.ny-1),
		iy1: clamp(int((p.Y+rs-b.Min.Y)/e.res), 0, e.ny-1),
	}
}

// diskScan walks the grid rows one sensing disk touches. It is the
// per-cell coverage predicate shared by every grid scan — Fraction,
// KFraction, FractionPair and the incremental Tracker's disk adds and
// moves — so the incremental engine is bit-identical to the full scans:
// they cannot disagree on which cells a sensor covers.
//
// The reference predicate (refCounts in scan_test.go) counts a cell of
// the clamped scan window when it is free, its center c passes
// c.Dist2(p) <= rs², and (on fields with obstacles) Field.Visible(p, c).
// Each rewrite of it here is exact:
//   - Row span: within a row dy is fixed, and Dist2 is monotone in
//     |c.X - p.X| (float subtraction, squaring and adding a constant are
//     all monotone), so the passing columns form one contiguous run. An
//     analytic guess of its ends is fixed up with the unchanged Dist2
//     predicate, so [lo, hi] is exactly that run.
//   - Disk probe: the candidate edges and obstacles near the disk are
//     gathered once per sensor. A blocked sensor sees no cell (every
//     Visible test would fail its Free(p) check), and a probe with no
//     nearby solid edge makes every in-disk pair visible.
//   - Row probe: every segment p→c of one row spans the same y range, so
//     the y half of VisibleFree's per-edge bounding-box reject is hoisted
//     out of the cell loop (Probe.Row). A row left with no edges needs no
//     visibility test at all.
//   - x-half reject: the x half of the same reject is hoisted per row too
//     (Probe.XReject). The columns it clears are those nearest p.X, where
//     VisibleFree would reject every edge and return true, so only the
//     columns at or below tl and at or above tr are tested. A row whose
//     two run ends are clear needs no test either.
type diskScan struct {
	e        *Estimator
	p        geom.Vec
	rs2      float64
	ix0, ix1 int
	iy, iy1  int  // next row to visit, last row
	losTest  bool // some cell may still need a visibility test
	disk     field.Probe

	// The current row, valid after Next reports true.
	y      int         // grid row index
	row    int         // grid index of the row's column 0
	cy     float64     // the row's cell-center y
	lo, hi int         // exact column run of in-disk cells
	tl, tr int         // columns <= tl or >= tr need a visibility test
	vis    bool        // some column of the run needs a visibility test
	pr     field.Probe // disk probe narrowed to this row
}

// scanDisk prepares the row walk for a disk of radius rs at p. The probe
// is filled only when the sensor is free and some row is left to visit.
func (e *Estimator) scanDisk(ps *field.ProbeScratch, p geom.Vec, rs float64) diskScan {
	d := diskScan{e: e, p: p, rs2: rs * rs, ix1: e.nx - 1, iy1: e.ny - 1}
	if !e.fullWindow(rs) {
		w := e.windowAround(p, rs)
		d.ix0, d.ix1, d.iy, d.iy1 = w.ix0, w.ix1, w.iy0, w.iy1
	}
	if d.iy > d.iy1 || len(e.f.Obstacles()) == 0 {
		return d
	}
	if !e.f.Free(p) {
		d.iy1 = d.iy - 1
		return d
	}
	d.disk = e.f.DiskProbe(ps, p, rs)
	d.losTest = !d.disk.TriviallyVisible()
	return d
}

// Next advances to the next row holding in-disk cells.
func (d *diskScan) Next() bool {
	for ; d.iy <= d.iy1; d.iy++ {
		cy := d.e.cy[d.iy]
		if !d.span(cy) {
			continue
		}
		d.y = d.iy
		d.row = d.iy * d.e.nx
		d.cy = cy
		d.tl, d.tr = d.lo-1, d.hi+1
		if d.losTest {
			d.pr = d.disk.Row(d.p.Y, cy)
			if !d.pr.TriviallyVisible() {
				d.testedEnds()
			}
		}
		d.vis = d.tl >= d.lo || d.tr <= d.hi
		d.iy++
		return true
	}
	return false
}

// testedEnds sets tl and tr to bound the columns of the run that the
// row probe's x-half reject leaves to a visibility test: a prefix
// [lo, tl] and a suffix [tr, hi]. The columns between are clear.
func (d *diskScan) testedEnds() {
	xr := d.pr.XReject(d.p.X)
	cx := d.e.cx
	tl := d.lo
	for tl <= d.hi && !xr.Clear(cx[tl]) {
		tl++
	}
	tr := d.hi
	for tr > tl && !xr.Clear(cx[tr]) {
		tr--
	}
	d.tl, d.tr = tl-1, tr+1
}

// in is the reference distance predicate for column ix of row cy.
func (d *diskScan) in(ix int, cy float64) bool {
	return geom.V(d.e.cx[ix], cy).Dist2(d.p) <= d.rs2
}

// span sets [lo, hi] to the columns of the scan window whose cells in row
// cy pass the distance predicate, reporting false when there are none.
// The analytic ends p.X ± √(rs² − dy²) are only a guess; fixSpan makes
// the run exact.
func (d *diskScan) span(cy float64) bool {
	e := d.e
	dy := cy - d.p.Y
	h2 := d.rs2 - dy*dy
	if h2 < 0 {
		h2 = 0
	}
	h := math.Sqrt(h2)
	lo := d.column(math.Ceil((d.p.X-h-e.x0)*e.invRes - 0.5))
	hi := d.column(math.Floor((d.p.X+h-e.x0)*e.invRes - 0.5))
	return d.fixSpan(cy, lo, hi)
}

// fixSpan walks guessed window columns lo and hi to the exact ends of the
// run of cells in row cy that pass the distance predicate, reporting
// false when the run is empty. Any guesses give the same run; good ones
// make the walks a step or two. A walk toward p.X that reaches the disk's
// center column without finding a passing cell proves the row empty: the
// predicate only gets worse moving away from p.X.
func (d *diskScan) fixSpan(cy float64, lo, hi int) bool {
	cx, px := d.e.cx, d.p.X
	switch {
	case d.in(lo, cy):
		for lo > d.ix0 && d.in(lo-1, cy) {
			lo--
		}
	case cx[lo] < px:
		// Left of the center and outside: the run starts further right.
		for {
			if lo++; lo > d.ix1 {
				return false
			}
			if d.in(lo, cy) {
				break
			}
			if cx[lo] >= px {
				return false
			}
		}
	default:
		// At or right of the center and outside: the run, if any, ends
		// further left.
		hi = lo
		for {
			if hi--; hi < d.ix0 {
				return false
			}
			if d.in(hi, cy) {
				break
			}
			if cx[hi] <= px {
				return false
			}
		}
		lo = hi
		for lo > d.ix0 && d.in(lo-1, cy) {
			lo--
		}
		d.lo, d.hi = lo, hi
		return true
	}
	// lo passes, so the walk down from an outside guess stops at lo.
	hi = max(lo, hi)
	if d.in(hi, cy) {
		for hi < d.ix1 && d.in(hi+1, cy) {
			hi++
		}
	} else {
		for !d.in(hi, cy) {
			hi--
		}
	}
	d.lo, d.hi = lo, hi
	return true
}

// column converts a fractional column guess to a column of the scan
// window, clamping before the integer conversion so that huge, infinite
// and NaN guesses clamp too.
func (d *diskScan) column(g float64) int {
	switch {
	case g >= float64(d.ix1):
		return d.ix1
	case g > float64(d.ix0):
		return int(g)
	}
	return d.ix0
}

// covers reports whether the sensor covers column ix of the current row,
// for ix in [lo, hi]: the cell is free and, where a test is still
// needed, in line of sight.
func (d *diskScan) covers(ix int) bool {
	return d.e.free[d.row+ix] && (ix > d.tl && ix < d.tr || d.sees(ix))
}

// sees is the visibility test from the sensor to the center of column ix
// of the current row. It stays out of line: inlined, its body would push
// covers over the inliner's budget, and covers must inline into the
// per-cell loops.
//
//go:noinline
func (d *diskScan) sees(ix int) bool {
	return d.pr.VisibleFree(d.p, geom.V(d.e.cx[ix], d.cy))
}

// Fraction returns the fraction of the free area covered by at least one
// disk of radius rs centered at the given positions. Sensing is
// line-of-sight: area behind an obstacle is not covered.
func (e *Estimator) Fraction(positions []geom.Vec, rs float64) float64 {
	if e.nFree == 0 {
		return 0
	}
	g := e.getScratch()
	defer e.putScratch(g)
	g.next()
	covered := g.stamps
	epoch := g.epoch
	count := 0
	for _, p := range positions {
		d := e.scanDisk(&g.probe, p, rs)
		for d.Next() {
			for ix := d.lo; ix <= d.hi; ix++ {
				if i := d.row + ix; covered[i] != epoch && d.covers(ix) {
					covered[i] = epoch
					count++
				}
			}
		}
		if count == e.nFree {
			return 1
		}
	}
	return float64(count) / float64(e.nFree)
}

// KFraction returns the fraction of the free area covered by at least k
// sensing disks (k-coverage, the "higher degree of coverage" the paper's
// §7 names as future work). KFraction(p, rs, 1) equals Fraction(p, rs).
func (e *Estimator) KFraction(positions []geom.Vec, rs float64, k int) float64 {
	if e.nFree == 0 || k <= 0 {
		return 0
	}
	g := e.getScratch()
	defer e.putScratch(g)
	g.next()
	epoch := g.epoch
	for _, p := range positions {
		d := e.scanDisk(&g.probe, p, rs)
		for d.Next() {
			for ix := d.lo; ix <= d.hi; ix++ {
				if !d.covers(ix) {
					continue
				}
				i := d.row + ix
				if g.stamps[i] != epoch {
					g.stamps[i] = epoch
					g.counts[i] = 0
				}
				g.counts[i]++
			}
		}
	}
	covered := 0
	for i := range e.free {
		if e.free[i] && g.stamps[i] == epoch && int(g.counts[i]) >= k {
			covered++
		}
	}
	return float64(covered) / float64(e.nFree)
}

// FractionPair returns Fraction(positions, rs) and KFraction(positions,
// rs, 2) from one scan of the disks: a layout's 1- and 2-coverage. A
// cell's count stops at 2, so a cell already covered twice skips its
// visibility tests.
func (e *Estimator) FractionPair(positions []geom.Vec, rs float64) (cov, cov2 float64) {
	if e.nFree == 0 {
		return 0, 0
	}
	g := e.getScratch()
	defer e.putScratch(g)
	g.next()
	epoch := g.epoch
	n1, n2 := 0, 0
	for _, p := range positions {
		d := e.scanDisk(&g.probe, p, rs)
		for d.Next() {
			for ix := d.lo; ix <= d.hi; ix++ {
				i := d.row + ix
				switch {
				case g.stamps[i] != epoch:
					if d.covers(ix) {
						g.stamps[i] = epoch
						g.counts[i] = 1
						n1++
					}
				case g.counts[i] == 1:
					if d.covers(ix) {
						g.counts[i] = 2
						n2++
					}
				}
			}
		}
	}
	return float64(n1) / float64(e.nFree), float64(n2) / float64(e.nFree)
}

// ExclusiveArea estimates the free area covered (with line of sight) by a
// disk of radius rs at center and by no disk at any of the others (§5.3: a
// sensor becomes movable only when the area it covers exclusively is below
// a threshold). The estimate samples the disk on a local window of the
// given resolution; no per-call grid is materialized.
func ExclusiveArea(f *field.Field, center geom.Vec, rs float64, others []geom.Vec, res float64) float64 {
	return exclusiveArea(f, center, rs, others, res, math.Inf(1))
}

// ExclusiveAreaBelow reports whether ExclusiveArea(f, center, rs, others,
// res) < limit, stopping the scan as soon as the accumulated area reaches
// the limit. The result is exact — the sampled area only ever grows, so
// once it reaches limit the full scan's verdict is already determined —
// which is what lets FLOOR's movable-sensor test (excl < threshold) skip
// most of the disk for sensors that are clearly not movable.
func ExclusiveAreaBelow(f *field.Field, center geom.Vec, rs float64, others []geom.Vec, res, limit float64) bool {
	return exclusiveArea(f, center, rs, others, res, limit) < limit
}

// exclusiveScratch pools the reusable buffers of ExclusiveArea, which is
// called once per sensor per FLOOR period across concurrent sweep
// workers.
type exclusiveScratch struct {
	probe field.ProbeScratch
	near  []geom.Vec
}

var exclScratch = sync.Pool{New: func() any { return new(exclusiveScratch) }}

// exclusiveArea runs the exclusive-coverage scan, returning early once the
// accumulated area reaches limit (pass +Inf for a full scan). It is an
// exact rewrite of the brute sampling loop (exclusiveAreaRef in
// accel_test.go), which tests every sample of the disk's bounding square
// against every other sensor through Field.Visible:
//   - a blocked center sees no sample (each Visible(center, p) would fail
//     its Free check), so the whole call returns 0;
//   - only others within 2·rs of the center can pass the sample test
//     p.Dist2(o) <= rs² for a sample within rs of the center (triangle
//     inequality, with a guard band far wider than float rounding), and
//     in LOS mode a blocked other can never see any sample — the filter
//     keeps order, so the first-match break is unchanged;
//   - Bounds().Contains is dropped because Free implies it;
//   - per-pair Visible calls become VisibleFree calls on a probe of the
//     disk of radius 2·rs, which holds every segment the loop tests
//     (center→p stays within rs of the center, o→p within 2·rs), and are
//     skipped wholesale when no solid edge is near that disk.
func exclusiveArea(f *field.Field, center geom.Vec, rs float64, others []geom.Vec, res, limit float64) float64 {
	if res <= 0 {
		res = rs / 10
	}
	rs2 := rs * rs
	los := len(f.Obstacles()) > 0
	if los && !f.Free(center) {
		return 0
	}
	sc := exclScratch.Get().(*exclusiveScratch)
	defer exclScratch.Put(sc)
	pr := f.DiskProbe(&sc.probe, center, 2*rs)
	reach := 2*rs + 1e-6
	reach2 := reach * reach
	near := sc.near[:0]
	for _, o := range others {
		if o.Dist2(center) > reach2 {
			continue
		}
		if los && !pr.FreeInDisk(o) {
			continue
		}
		near = append(near, o)
	}
	sc.near = near
	visTest := los && !pr.TriviallyVisible()
	count := 0
	for y := center.Y - rs; y <= center.Y+rs; y += res {
		for x := center.X - rs; x <= center.X+rs; x += res {
			p := geom.V(x, y)
			if p.Dist2(center) > rs2 || !pr.FreeInDisk(p) {
				continue
			}
			if visTest && !pr.VisibleFree(center, p) {
				continue
			}
			exclusive := true
			for _, o := range near {
				if p.Dist2(o) <= rs2 && (!visTest || pr.VisibleFree(o, p)) {
					exclusive = false
					break
				}
			}
			if exclusive {
				count++
				if float64(count)*res*res >= limit {
					return float64(count) * res * res
				}
			}
		}
	}
	return float64(count) * res * res
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
