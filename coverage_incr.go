package mobisense

import (
	"mobisense/internal/core"
	"mobisense/internal/coverage"
	"mobisense/internal/geom"
)

// worldTracker keeps an incremental coverage tracker in sync with a
// running world. It discovers dirty sensors through the world's per-node
// move epochs (bumped on every new step record, teleport, or failure)
// plus the step end times — schemes never call back into it — so each
// sync touches only the sensors whose position could have changed since
// the previous one, and each of those costs one disk window instead of a
// full grid rescan.
type worldTracker struct {
	t        *coverage.Tracker
	seen     []uint64 // last observed move epoch per sensor id
	pos      []geom.Vec
	alive    []bool
	lastSync float64
	seeded   bool
}

// newWorldTracker acquires a tracker for a run over w-sized worlds. The
// first sync seeds it with a full evaluation; later syncs move, add or
// clear only the dirty sensors.
func newWorldTracker(est *coverage.Estimator, rs float64, n int) *worldTracker {
	return &worldTracker{
		t:     est.AcquireTracker(rs, n),
		seen:  make([]uint64, n),
		pos:   make([]geom.Vec, n),
		alive: make([]bool, n),
	}
}

// sync brings the tracker up to date with the world's current time. A
// sensor is provably clean — and skipped — when its move epoch is
// unchanged and its current step record ended at or before the previous
// sync; everything else is re-applied through an exact position compare
// (Set is a no-op when the position is bit-equal). A moved sensor costs
// one scan of its new disk and only the cells whose count changes.
func (wt *worldTracker) sync(w *core.World) {
	now := w.Now()
	if !wt.seeded {
		wt.seed(w, now)
		return
	}
	for i := range wt.seen {
		ep := w.MoveEpoch(i)
		if ep == wt.seen[i] && w.StepEndTime(i) <= wt.lastSync {
			continue
		}
		wt.seen[i] = ep
		if !w.Alive(i) {
			wt.t.Clear(i)
			continue
		}
		wt.t.Set(i, w.PosAt(i, now))
	}
	wt.lastSync = now
}

// seed runs one full evaluation, refreshing every position, epoch and
// liveness flag.
func (wt *worldTracker) seed(w *core.World, now float64) {
	for i := range wt.seen {
		wt.seen[i] = w.MoveEpoch(i)
		wt.alive[i] = w.Alive(i)
		if wt.alive[i] {
			wt.pos[i] = w.PosAt(i, now)
		} else {
			wt.pos[i] = geom.Vec{}
		}
	}
	wt.t.Seed(wt.pos, wt.alive)
	wt.lastSync = now
	wt.seeded = true
}

func (wt *worldTracker) release() { wt.t.Release() }
