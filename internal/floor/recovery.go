package floor

import (
	"math"

	"mobisense/internal/core"
	"mobisense/internal/geom"
)

// Failure recovery (§7 "future work", implemented as an extension): when a
// sensor dies, FLOOR repairs the deployment locally. A dead fixed node
// leaves the floor registry, its orphaned children re-home to surviving
// fixed neighbors (falling back to a fresh connectivity walk), its
// neighbors wake to re-discover the coverage hole, and a dead relocating
// sensor's virtual place-holder is withdrawn so the EP can be re-offered.

// HandleFailure repairs the protocol state after sensor `victim` died with
// the given orphaned children. Wire it to a core.FailureInjector's OnKill.
func (s *Scheme) HandleFailure(victim int, orphans []int) {
	w := s.w
	switch s.st[victim] {
	case stateRelocating:
		r := &s.reloc[victim]
		s.reg.removeVirtual(r.token)
		s.dropOwnedVirtual(r.inviter, r.token)
	case stateFixed:
		s.reg.removeFixed(victim)
		// Withdraw outstanding advertisements and release in-flight
		// claims owned by the victim: their travelers re-enter the
		// movable pool on arrival failure; simplest is to re-anchor the
		// claims to the victim's neighbors via re-discovery, so just wake
		// the neighborhood and let discovery find the hole.
		s.pendings[victim] = nil
	}
	s.st[victim] = stateAwaiting // terminal; failed sensors never decide again

	// The victim's sensing area is now a hole: wake every fixed neighbor
	// so expansion re-discovers it.
	for _, n := range w.NeighborsWithin(victim, w.P.Rc) {
		if j := n.ID; s.st[j] == stateFixed {
			s.epDone[j] = false
			s.inviteBackoff[j] = 0
			s.nextInvite[j] = 0
		}
	}

	// Re-home the orphaned subtrees.
	for _, c := range orphans {
		s.rehomeOrphan(c)
	}

	// Arm the periodic heartbeat sweep: from now on the monitor checks
	// for physically severed segments every period (a death can strand
	// sensors later, e.g. when an in-transit sensor that bridged the hole
	// moves on).
	s.failures = true
	s.sweepStranded()
}

// sweepStranded sends every physically severed, tree-attached sensor back
// to the connectivity walk (the base station noticed its heartbeats
// stopped arriving). Only meaningful once failures have occurred: in a
// healthy run, chains transiently spanning unfilled EPs are expected and
// must not be torn down.
func (s *Scheme) sweepStranded() {
	w := s.w
	for _, m := range w.PhysicallyStranded(w.P.Rc) {
		if w.Sensors[m].Failed || s.st[m] == stateWalking {
			continue
		}
		w.Msg.Count(core.MsgReport, 1)
		if s.st[m] == stateFixed {
			s.reg.removeFixed(m)
		}
		if s.st[m] == stateRelocating {
			r := &s.reloc[m]
			s.reg.removeVirtual(r.token)
			s.dropOwnedVirtual(r.inviter, r.token)
		}
		s.pendings[m] = nil
		w.Tree.Detach(m)
		w.Sensors[m].Connected = false
		s.st[m] = stateWalking
		s.lazy.ReplaceWalker(m, s.rejoinWalker(w.Pos(m)))
	}
}

// rejoinWalker routes a stranded sensor straight toward the nearest
// surviving rooted fixed sensor — far shorter than re-running the full
// Algorithm-1 route — falling back to the standard connect route when no
// anchor exists.
func (s *Scheme) rejoinWalker(from geom.Vec) core.Walker {
	w := s.w
	best := core.NoParent
	bestD := math.Inf(1)
	for i, sen := range w.Sensors {
		if sen.Failed || s.st[i] != stateFixed || !sen.Connected || !w.Tree.InTree(i) {
			continue
		}
		if d := w.Pos(i).Dist(from); d < bestD {
			bestD = d
			best = i
		}
	}
	if best == core.NoParent {
		return s.newConnectWalker(from)
	}
	return core.NewDirectWalker(w.F, from, w.Pos(best))
}

// rehomeOrphan reattaches a detached child (and implicitly its subtree):
// to the base if in range, else to the nearest surviving fixed neighbor,
// else it reverts to the connectivity walk of phase 1.
func (s *Scheme) rehomeOrphan(c int) {
	w := s.w
	if w.Sensors[c].Failed {
		return
	}
	if w.NearBase(c, s.connectR) {
		w.Tree.SetParent(c, core.BaseParent)
		w.Msg.Count(core.MsgTreeCtl, 2)
		return
	}
	// The anchor must itself be rooted at the base: attaching to another
	// detached fragment would form a physically isolated island.
	if alt := s.nearestFixedWithin(c, s.connectR); alt != core.NoParent &&
		w.Tree.InTree(alt) && !w.Tree.IsAncestor(c, alt) && w.Tree.SetParent(c, alt) {
		w.Msg.Count(core.MsgTreeCtl, 2)
		return
	}
	// No anchor in range: the orphan's subtree walks back to the network.
	for _, m := range w.Tree.Subtree(c) {
		if w.Sensors[m].Failed {
			continue
		}
		w.Tree.Detach(m)
		w.Sensors[m].Connected = false
		s.st[m] = stateWalking
		s.lazy.ReplaceWalker(m, s.newConnectWalker(w.Pos(m)))
	}
}
