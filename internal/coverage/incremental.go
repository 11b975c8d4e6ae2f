package coverage

import (
	"os"
	"sync"
	"sync/atomic"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// incrEnabled gates the incremental coverage engine at run time. It
// exists for A/B verification (the engine must be bit-identical to the
// brute-force estimator, and tests prove it by flipping this off) and as
// an operational kill switch: set MOBISENSE_NO_INCR=1 to force every
// consumer back onto the full-rescan paths.
var incrEnabled = os.Getenv("MOBISENSE_NO_INCR") != "1"

// SetIncrementalEnabled turns the incremental coverage engine on or off
// globally and returns the previous setting. Intended for tests:
//
//	defer coverage.SetIncrementalEnabled(coverage.SetIncrementalEnabled(false))
func SetIncrementalEnabled(on bool) bool {
	prev := incrEnabled
	incrEnabled = on
	return prev
}

// IncrementalEnabled reports whether the incremental engine is active.
func IncrementalEnabled() bool { return incrEnabled }

// Tracker maintains per-cell integer cover counts for a set of sensors so
// coverage queries become O(1) reads of running totals instead of full
// grid rescans. Seed it once with a full evaluation, then keep it current
// with Set/Clear as sensors move, die, or recover: each update rescans
// only the moved sensor's disk window (subtract the old disk's cells, add
// the new ones) through exactly the same per-cell predicate the
// brute-force Fraction/KFraction scans use — identical integer counts, so
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
// disks — the same integer the brute-force scans count.
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
	e := t.e
	s := e.scanDisk(&t.probe, p, t.rs, 0, e.ny)
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

// seedBandRows is the fixed height of one row band of the parallel
// seeder. Fixed bands (not per-worker splits) are what make the result
// independent of the worker count: each band's rows are touched by
// exactly one goroutine, and integer increments over disjoint rows
// commute.
const seedBandRows = 16

// Seed performs the one full evaluation that initializes the counts:
// sensor i is placed at positions[i] when present[i] (a nil present means
// all). Rows are split into fixed bands fanned over at most workers
// goroutines; the counts — and therefore every subsequent query — are
// bit-identical at any worker count.
func (t *Tracker) Seed(positions []geom.Vec, present []bool, workers int) {
	t.reset(len(positions))
	for i, p := range positions {
		if present != nil && !present[i] {
			continue
		}
		t.pos[i] = p
		t.present[i] = true
	}
	bands := (t.e.ny + seedBandRows - 1) / seedBandRows
	if workers > bands {
		workers = bands
	}
	if workers <= 1 {
		// Serial seeding maintains the histogram inline (counts only
		// ever increment during a seed, so each cell walks hist exactly
		// as rebuildHist would recount it). That keeps re-seeds — the
		// high-churn path of a tracker syncing a converging fleet — free
		// of the full-grid rebuild scan.
		t.seedBand(0, t.e.ny, &t.probe, true)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ps field.ProbeScratch
			for {
				b := int(next.Add(1)) - 1
				if b >= bands {
					return
				}
				r1 := (b + 1) * seedBandRows
				if r1 > t.e.ny {
					r1 = t.e.ny
				}
				t.seedBand(b*seedBandRows, r1, &ps, false)
			}
		}()
	}
	wg.Wait()
	t.rebuildHist()
}

// seedBand accumulates cover counts for rows [r0, r1) across all present
// sensors, through the same diskScan predicate as disk. With trackHist
// the histogram is shifted per cell (single-goroutine callers only);
// otherwise counts only, and the caller rebuilds the histogram after all
// bands finish.
func (t *Tracker) seedBand(r0, r1 int, ps *field.ProbeScratch, trackHist bool) {
	e := t.e
	for id, p := range t.pos {
		if !t.present[id] {
			continue
		}
		s := e.scanDisk(ps, p, t.rs, r0, r1)
		for s.Next() {
			for ix := s.lo; ix <= s.hi; ix++ {
				if !s.covers(ix) {
					continue
				}
				i := s.row + ix
				old := t.counts[i]
				t.counts[i] = old + 1
				if trackHist {
					t.shift(old, old+1)
				}
			}
		}
	}
}

// rebuildHist recomputes the exact-count histogram from the counts array
// after a bulk seed.
func (t *Tracker) rebuildHist() {
	t.hist = t.hist[:1]
	clear(t.hist)
	for i, free := range t.e.free {
		if !free {
			continue
		}
		c := t.counts[i]
		for int(c) >= len(t.hist) {
			t.hist = append(t.hist, 0)
		}
		t.hist[c]++
	}
}
