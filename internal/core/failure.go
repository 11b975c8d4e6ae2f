package core

import (
	"math/rand/v2"

	"mobisense/internal/geom"
)

// Sensor failure support — the paper's §7 names failure recovery as the
// next step for these schemes ("extend these schemes from deployment
// through to the whole life cycle ... including tasks such as failure
// recovery"); the world model therefore supports killing sensors, and
// FLOOR implements a repair path on top of it.

// Kill marks sensor id as failed: it stops where it is, leaves the
// connectivity tree (its children become detached roots until a scheme
// re-homes them), and disappears from the radio neighborhood. Killing an
// already-dead sensor is a no-op. It returns the sensor's former children.
func (w *World) Kill(id int) []int {
	s := &w.Sensors[id]
	if s.Failed {
		return nil
	}
	now := w.Now()
	pos := w.PosAt(id, now)
	w.dropNbrs(id)
	w.dropSettledNear(pos)
	w.stepFrom[id], w.stepTo[id] = pos, pos
	w.stepT0[id], w.stepT1[id] = now, now
	w.moveEpoch[id]++
	w.writes++
	s.Failed = true
	s.Connected = false

	orphans := append([]int(nil), w.Tree.Children(id)...)
	for _, c := range orphans {
		w.Tree.Detach(c)
	}
	w.Tree.Detach(id)
	w.idx.Remove(id)
	return orphans
}

// Alive reports whether sensor id has not failed.
func (w *World) Alive(id int) bool { return !w.Sensors[id].Failed }

// AliveCount returns the number of non-failed sensors.
func (w *World) AliveCount() int {
	n := 0
	for i := range w.Sensors {
		if !w.Sensors[i].Failed {
			n++
		}
	}
	return n
}

// AliveLayout returns the positions of the non-failed sensors.
func (w *World) AliveLayout() []geom.Vec {
	out := make([]geom.Vec, 0, len(w.Sensors))
	now := w.Now()
	for i := range w.Sensors {
		if !w.Sensors[i].Failed {
			out = append(out, w.PosAt(i, now))
		}
	}
	return out
}

// PhysicallyStranded returns the alive sensors that are flagged Connected
// but no longer unit-disk reachable from the base station at the given
// radius. A mid-chain death can break physical connectivity without
// orphaning anyone in the tree; the base station notices the lost
// heartbeats and the scheme sends the strays back to re-join. The result
// is scratch owned by the world, valid until the next PhysicallyStranded
// call; the layout and the connectivity search run on world-owned
// buffers, so the once-per-period heartbeat sweep allocates nothing.
func (w *World) PhysicallyStranded(radius float64) []int {
	positions := w.strandPos[:0]
	ids := w.strandIDs[:0]
	now := w.Now()
	for i := range w.Sensors {
		if !w.Sensors[i].Failed {
			positions = append(positions, w.PosAt(i, now))
			ids = append(ids, i)
		}
	}
	w.strandPos = positions
	// The stranded IDs are compacted into ids in place: the write index
	// never passes the read index.
	out := ids[:0]
	for k, ok := range w.reach.run(positions, w.F.Reference(), radius) {
		if !ok && w.Sensors[ids[k]].Connected {
			out = append(out, ids[k])
		}
	}
	w.strandIDs = ids
	return out
}

// FailureInjector kills a random alive sensor at a fixed interval,
// modeling attritional sensor death during deployment. Attach it after the
// scheme so the scheme's recovery hooks observe the failures.
type FailureInjector struct {
	// Interval between kills, in seconds.
	Interval float64
	// MaxKills bounds the total number of failures (0 = unbounded).
	MaxKills int
	// OnKill, if set, is invoked after each kill with the victim and its
	// orphaned children (schemes register their repair handler here).
	OnKill func(victim int, orphans []int)

	killed int
}

// Attach schedules the injector's periodic kills on the world.
func (fi *FailureInjector) Attach(w *World) {
	if fi.Interval <= 0 {
		fi.Interval = 50
	}
	var tick func()
	tick = func() {
		if fi.MaxKills > 0 && fi.killed >= fi.MaxKills {
			return
		}
		if victim, ok := fi.pickVictim(w, w.E.Rand()); ok {
			orphans := w.Kill(victim)
			fi.killed++
			if fi.OnKill != nil {
				fi.OnKill(victim, orphans)
			}
		}
		if w.Now() < w.P.Duration {
			w.E.Schedule(fi.Interval, tick)
		}
	}
	w.E.Schedule(fi.Interval, tick)
}

// Killed returns how many sensors the injector has killed so far.
func (fi *FailureInjector) Killed() int { return fi.killed }

func (fi *FailureInjector) pickVictim(w *World, rng *rand.Rand) (int, bool) {
	alive := make([]int, 0, len(w.Sensors))
	for i := range w.Sensors {
		if !w.Sensors[i].Failed {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		return 0, false
	}
	return alive[rng.IntN(len(alive))], true
}
