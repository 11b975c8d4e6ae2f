package coverage

import (
	"math/bits"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// Tracker maintains per-cell integer cover counts for a set of sensors so
// coverage queries become O(1) reads of running totals instead of full
// grid rescans. Seed it once, then keep it current with Set/Clear as
// sensors move, die, or recover. Every disk is added through exactly the
// same per-cell predicate the full Fraction/KFraction scans use, and what
// it covered is recorded as the sensor's footprint, so removing the disk
// replays the add: identical integer counts, so the returned fractions
// are bit-identical to a fresh evaluation.
//
// A Tracker belongs to one goroutine at a time; concurrent runs each
// acquire their own from the estimator's pool.
type Tracker struct {
	e       *Estimator
	rs      float64
	counts  []int32    // per-cell cover count (free cells only)
	hist    []int32    // hist[c] = number of free cells covered by exactly c disks
	pos     []geom.Vec // last applied position per sensor id
	present []bool     // sensor id currently contributes a disk
	probe   field.ProbeScratch

	// Footprints live in one flat arena of n+1 slots of rowCap row
	// records each. A move records the new disk into the spare slot,
	// which then becomes the sensor's, and the old slot becomes spare.
	rowCap int      // row records per slot, at least any disk's row count
	words  int      // mask words per row record, enough for any run
	slot   []int32  // footprint slot per sensor id
	spare  int32    // the slot the next move records into
	nrows  []int32  // row records in use per slot
	rows   []fpRow  // rowCap records per slot, bottom-up
	mask   []uint64 // words per row record: a tested row's covered columns
}

// fpRow is one row of a footprint: the grid row, the exact column run of
// in-disk cells and whether the run needed a visibility test. A
// test-free row covered exactly the free cells of its run; a tested
// row's covered columns are the set bits of its mask, bit j standing for
// column lo+j.
type fpRow struct {
	y, lo, hi int32
	vis       bool
}

// AcquireTracker borrows a tracker for disks of radius rs over n sensor
// ids (0..n-1), reset to the empty state. Release it when the run ends.
func (e *Estimator) AcquireTracker(rs float64, n int) *Tracker {
	t, _ := e.trackers.Get().(*Tracker)
	if t == nil {
		t = &Tracker{e: e, counts: make([]int32, len(e.free))}
	}
	t.rs = rs
	t.reset(n)
	return t
}

// Release returns the tracker to its estimator's pool.
func (t *Tracker) Release() { t.e.trackers.Put(t) }

// reset clears the tracker to "no sensors present" for n sensor ids and
// sizes the footprint arena for n and rs, growing it only when a larger
// one is needed.
func (t *Tracker) reset(n int) {
	clear(t.counts)
	if cap(t.hist) < 1 {
		t.hist = make([]int32, 1, 8)
	}
	t.hist = t.hist[:1]
	clear(t.hist)
	t.hist[0] = int32(t.e.nFree)
	if cap(t.pos) < n {
		t.pos = make([]geom.Vec, n)
		t.present = make([]bool, n)
		t.slot = make([]int32, n)
	}
	t.pos = t.pos[:n]
	t.present = t.present[:n]
	clear(t.present)
	t.slot = t.slot[:n]
	for i := range t.slot {
		t.slot[i] = int32(i)
	}
	t.spare = int32(n)

	// A disk's scan window spans at most 2·rs/res + 2 rows and columns
	// (one more absorbs rounding), and never more than the grid.
	w := 2*t.rs/t.e.res + 3
	t.rowCap = int(min(w, float64(t.e.ny)))
	t.words = (int(min(w, float64(t.e.nx))) + 63) / 64
	recs := (n + 1) * t.rowCap
	if cap(t.nrows) < n+1 {
		t.nrows = make([]int32, n+1)
	}
	t.nrows = t.nrows[:n+1]
	if cap(t.rows) < recs {
		t.rows = make([]fpRow, recs)
	}
	t.rows = t.rows[:recs]
	if cap(t.mask) < recs*t.words {
		t.mask = make([]uint64, recs*t.words)
	}
	t.mask = t.mask[:recs*t.words]
}

// bump adds d to free cell i's cover count, moving the cell between
// exact-count histogram buckets.
func (t *Tracker) bump(i int, d int32) {
	old := t.counts[i]
	t.counts[i] = old + d
	t.hist[old]--
	for int(old+d) >= len(t.hist) {
		t.hist = append(t.hist, 0)
	}
	t.hist[old+d]++
}

// run adds d to the count of every free cell in columns [lo, hi] of the
// grid row whose column 0 has grid index row; an empty range is a no-op.
func (t *Tracker) run(row, lo, hi int, d int32) {
	for i := row + lo; i <= row+hi; i++ {
		if t.e.free[i] {
			t.bump(i, d)
		}
	}
}

// coveredAtLeast returns the number of free cells covered by at least k
// disks — the same integer the full scans count.
func (t *Tracker) coveredAtLeast(k int) int {
	cov := t.e.nFree
	for c := 0; c < k && c < len(t.hist); c++ {
		cov -= int(t.hist[c])
	}
	return cov
}

// Fraction answers Estimator.Fraction for the tracked sensor set from the
// running counts.
func (t *Tracker) Fraction() float64 {
	if t.e.nFree == 0 {
		return 0
	}
	return float64(t.coveredAtLeast(1)) / float64(t.e.nFree)
}

// KFraction answers Estimator.KFraction for the tracked sensor set from
// the running counts.
func (t *Tracker) KFraction(k int) float64 {
	if t.e.nFree == 0 || k <= 0 {
		return 0
	}
	return float64(t.coveredAtLeast(k)) / float64(t.e.nFree)
}

// Set places (or moves) sensor id at p. A no-op when the sensor is
// already present at exactly p.
func (t *Tracker) Set(id int, p geom.Vec) {
	switch {
	case !t.present[id]:
		t.add(id, p)
	case t.pos[id] != p:
		t.move(id, p)
	}
}

// Clear removes sensor id (failed or departed) from the tracked set by
// dropping its footprint.
func (t *Tracker) Clear(id int) {
	if !t.present[id] {
		return
	}
	s := int(t.slot[id])
	for k, end := s*t.rowCap, s*t.rowCap+int(t.nrows[s]); k < end; k++ {
		t.dropRow(k)
	}
	t.present[id] = false
}

// Seed performs the one full evaluation that initializes the counts:
// sensor i is placed at positions[i] when present[i] (a nil present means
// all). Each present sensor's disk is added in id order, and the
// histogram is shifted cell by cell as the counts grow, so a seed costs
// one disk scan per sensor and no full-grid pass.
func (t *Tracker) Seed(positions []geom.Vec, present []bool) {
	t.reset(len(positions))
	for i, p := range positions {
		if present == nil || present[i] {
			t.add(i, p)
		}
	}
}

// add applies a disk at p for the absent sensor id and records its
// footprint in the sensor's slot.
func (t *Tracker) add(id int, p geom.Vec) {
	s := int(t.slot[id])
	k := s * t.rowCap
	d := t.e.scanDisk(&t.probe, p, t.rs)
	for d.Next() {
		t.addRow(&d, k)
		k++
	}
	t.nrows[s] = int32(k - s*t.rowCap)
	t.pos[id] = p
	t.present[id] = true
}

// move brings present sensor id from its footprint to a disk at p with one
// scan of the new disk, walking its rows beside the footprint's (both are
// bottom-up). On a row both share where neither position needs a
// visibility test, a column is covered exactly when its cell is free, so
// only the columns in one run and not the other change count. Any other
// shared row drops its recorded cells and adds the new row cell by cell;
// rows only in the footprint are dropped, rows only in the new disk
// added.
func (t *Tracker) move(id int, p geom.Vec) {
	old, nw := int(t.slot[id]), int(t.spare)
	k, end := old*t.rowCap, old*t.rowCap+int(t.nrows[old])
	j := nw * t.rowCap
	d := t.e.scanDisk(&t.probe, p, t.rs)
	for d.Next() {
		y := int32(d.y)
		for ; k < end && t.rows[k].y < y; k++ {
			t.dropRow(k)
		}
		if k < end && t.rows[k].y == y {
			if o := t.rows[k]; !o.vis && !d.vis {
				lo, hi := int(o.lo), int(o.hi)
				t.run(d.row, lo, min(hi, d.lo-1), -1)
				t.run(d.row, max(lo, d.hi+1), hi, -1)
				t.run(d.row, d.lo, min(d.hi, lo-1), +1)
				t.run(d.row, max(d.lo, hi+1), d.hi, +1)
				t.rows[j] = fpRow{y: y, lo: int32(d.lo), hi: int32(d.hi)}
				k++
				j++
				continue
			}
			t.dropRow(k)
			k++
		}
		t.addRow(&d, j)
		j++
	}
	for ; k < end; k++ {
		t.dropRow(k)
	}
	t.nrows[nw] = int32(j - nw*t.rowCap)
	t.slot[id], t.spare = int32(nw), int32(old)
	t.pos[id] = p
}

// addRow adds the covered cells of the scan's current row to the counts
// and records the row as row record k.
func (t *Tracker) addRow(d *diskScan, k int) {
	t.rows[k] = fpRow{y: int32(d.y), lo: int32(d.lo), hi: int32(d.hi), vis: d.vis}
	if !d.vis {
		t.run(d.row, d.lo, d.hi, +1)
		return
	}
	m := t.mask[k*t.words : (k+1)*t.words]
	clear(m)
	for ix := d.lo; ix <= d.hi; ix++ {
		if d.covers(ix) {
			t.bump(d.row+ix, +1)
			b := ix - d.lo
			m[b>>6] |= 1 << (b & 63)
		}
	}
}

// dropRow removes the cells row record k covered from the counts,
// without testing visibility again.
func (t *Tracker) dropRow(k int) {
	r := t.rows[k]
	row := int(r.y) * t.e.nx
	if !r.vis {
		t.run(row, int(r.lo), int(r.hi), -1)
		return
	}
	base := row + int(r.lo)
	for w, m := range t.mask[k*t.words : (k+1)*t.words] {
		for ; m != 0; m &= m - 1 {
			t.bump(base+w<<6+bits.TrailingZeros64(m), -1)
		}
	}
}
