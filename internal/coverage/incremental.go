package coverage

import (
	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// Tracker maintains per-cell integer cover counts for a set of sensors so
// coverage queries become O(1) reads of running totals instead of full
// grid rescans. Seed it once with a full evaluation, then keep it current
// with Set/Clear as sensors move, die, or recover: each update rescans
// only the moved sensor's disk window (subtract the old disk's cells, add
// the new ones) through exactly the same per-cell predicate the
// full Fraction/KFraction scans use — identical integer counts, so
// the returned fractions are bit-identical to a fresh evaluation.
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

// reset clears the tracker to "no sensors present" for n sensor ids.
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
	}
	t.pos = t.pos[:n]
	t.present = t.present[:n]
	clear(t.present)
}

// shift moves one free cell from exact cover count old to new in the
// histogram.
func (t *Tracker) shift(old, new int32) {
	t.hist[old]--
	for int(new) >= len(t.hist) {
		t.hist = append(t.hist, 0)
	}
	t.hist[new]++
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

// Set places (or moves) sensor id at p, updating only the affected disk
// windows. A no-op when the sensor is already present at exactly p.
func (t *Tracker) Set(id int, p geom.Vec) {
	if t.present[id] && t.pos[id] == p {
		return
	}
	if t.present[id] {
		t.disk(t.pos[id], -1)
	}
	t.disk(p, +1)
	t.pos[id] = p
	t.present[id] = true
}

// UpdateCost returns the number of disk-window scans Set (with
// present=true) or Clear (present=false) would perform to bring sensor id
// to the given state: 0 when the tracker already has it, 1 for an
// appearance or disappearance, 2 for a move. Callers batching many
// updates can sum these to decide between incremental application and a
// full re-Seed (which costs one scan per present sensor).
func (t *Tracker) UpdateCost(id int, p geom.Vec, present bool) int {
	switch {
	case !present:
		if !t.present[id] {
			return 0
		}
		return 1
	case !t.present[id]:
		return 1
	case t.pos[id] == p:
		return 0
	default:
		return 2
	}
}

// Clear removes sensor id (failed or departed) from the tracked set.
func (t *Tracker) Clear(id int) {
	if !t.present[id] {
		return
	}
	t.disk(t.pos[id], -1)
	t.present[id] = false
}

// disk applies delta d (+1 or -1) to every free cell covered by a disk at
// p, through the same diskScan predicate the full scans use; removal is
// exact because the same position always yields the same cell set.
func (t *Tracker) disk(p geom.Vec, d int32) {
	s := t.e.scanDisk(&t.probe, p, t.rs)
	for s.Next() {
		for ix := s.lo; ix <= s.hi; ix++ {
			if !s.covers(ix) {
				continue
			}
			i := s.row + ix
			old := t.counts[i]
			t.counts[i] = old + d
			t.shift(old, old+d)
		}
	}
}

// Seed performs the one full evaluation that initializes the counts:
// sensor i is placed at positions[i] when present[i] (a nil present means
// all). Each present sensor's disk is added in id order, and the
// histogram is shifted cell by cell as the counts grow, so a re-seed —
// the high-churn path of a tracker syncing a converging fleet — costs
// one disk scan per sensor and no full-grid pass.
func (t *Tracker) Seed(positions []geom.Vec, present []bool) {
	t.reset(len(positions))
	for i, p := range positions {
		if present != nil && !present[i] {
			continue
		}
		t.pos[i] = p
		t.present[i] = true
		t.disk(p, +1)
	}
}
