package floor

import (
	"math"
	"math/rand/v2"
	"slices"

	"mobisense/internal/bug2"
	"mobisense/internal/core"
)

// nextHop draws a walk's next sensor from the sorted neighbor list nbrs,
// never straight back to prev when any alternative exists: a uniform
// draw over nbrs with prev removed. prev is skipped by index instead of
// filtering a copy of the list, which makes the same pick with the same
// single rng draw. ok is false when nbrs is empty.
func nextHop(rng *rand.Rand, nbrs []int, prev int) (next int, ok bool) {
	m := len(nbrs)
	skip := m
	if m > 1 && prev >= 0 {
		if k, found := slices.BinarySearch(nbrs, prev); found {
			skip = k
			m--
		}
	}
	if m == 0 {
		return 0, false
	}
	k := rng.IntN(m)
	if k >= skip {
		k++
	}
	return nbrs[k], true
}

// sendInvitation launches a TTL-bounded random walk carrying an Invitation
// for the given EP (§5.5.2, Algorithm 2). The walk hops between arbitrary
// sensors — non-backtracking, so its reach grows near-linearly with the
// TTL — and the first movable sensor it reaches collects the invitation.
// Every hop is one MsgInvite transmission. World.Neighbors keeps each
// sensor's list, so a hop rescans only when the sensor's neighborhood may
// have changed.
func (s *Scheme) sendInvitation(id int, ep epCandidate) {
	w := s.w
	rng := w.E.Rand()
	cur := id
	prev := -1
	for hop := 1; hop <= s.cfg.TTL; hop++ {
		next, ok := nextHop(rng, w.Neighbors(cur, w.P.Rc), prev)
		if !ok {
			return
		}
		prev, cur = cur, next
		w.Msg.Count(core.MsgInvite, 1)
		if s.st[cur] == stateMovable {
			if len(s.invites[cur]) == 0 {
				s.firstInvite[cur] = w.Now()
			}
			s.invites[cur] = append(s.invites[cur], invitation{
				ep:      ep.pos,
				kind:    ep.kind,
				inviter: id,
				hops:    hop,
			})
			return
		}
	}
}

// movableStep is one period of a movable sensor: wait until enough
// invitations have been collected, accept the best one (highest priority,
// then smallest Euclidean distance), and start relocating once the inviter
// acknowledges (§5.5.2).
func (s *Scheme) movableStep(id int) {
	w := s.w
	w.Msg.Count(core.MsgBeacon, 1)
	patienceUp := len(s.invites[id]) > 0 &&
		w.Now()-s.firstInvite[id] >= float64(s.cfg.PatiencePeriods)*w.P.Period
	if len(s.invites[id]) < s.cfg.InvitesNeeded && !patienceUp {
		if len(s.invites[id]) == 0 {
			// A movable stranded without any fixed anchor in communication
			// range re-runs the connectivity walk, preserving the scheme's
			// connectivity guarantee even when all its neighbors have
			// relocated away.
			if s.nearestFixedWithin(id, w.P.Rc) == core.NoParent && !w.NearBase(id, s.connectR) {
				s.st[id] = stateWalking
				w.Sensors[id].Connected = false
				w.Tree.Detach(id)
				s.lazy.ReplaceWalker(id, s.newConnectWalker(w.Pos(id)))
				s.walkStep(id)
				return
			}
		}
		w.Stay(id, w.P.Period)
		return
	}
	pos := w.Pos(id)
	best := 0
	if !s.cfg.DisablePriority {
		for i, inv := range s.invites[id] {
			b := s.invites[id][best]
			if inv.kind > b.kind ||
				(inv.kind == b.kind && pos.Dist(inv.ep) < pos.Dist(b.ep)) {
				best = i
			}
		}
	}
	inv := s.invites[id][best]
	// Drop the chosen invitation from the pending list either way.
	s.invites[id] = append(s.invites[id][:best], s.invites[id][best+1:]...)

	w.Msg.Count(core.MsgAccept, inv.hops)
	granted := s.st[inv.inviter] == stateFixed &&
		w.F.Free(inv.ep) &&
		!s.placementTaken(inv.ep, inv.inviter) &&
		s.acceptPending(inv.inviter, inv.ep)
	w.Msg.Count(core.MsgAck, inv.hops)
	if !granted {
		// Rejected: keep collecting (Algorithm 2's movable loop).
		w.Stay(id, w.P.Period)
		return
	}

	// Acknowledge: the inviter installs a virtual place-holding node and
	// updates its ancestors' location information. The virtual node now
	// also serves as an EP-discovery anchor for the inviter.
	token := s.reg.addVirtual(inv.ep)
	s.ownedVirtuals[inv.inviter] = append(s.ownedVirtuals[inv.inviter],
		virtualAnchor{token: token, pos: inv.ep, kind: inv.kind})
	// A successful placement resets the inviter's advertisement backoff:
	// demand exists, keep the pipeline full.
	s.inviteBackoff[inv.inviter] = 0
	s.nextInvite[inv.inviter] = 0
	if d := w.Tree.Depth(inv.inviter); d > 0 {
		w.Msg.Count(core.MsgUpdate, d)
	}
	s.st[id] = stateRelocating
	rel := &s.reloc[id]
	rel.planner.Init(w.F, pos, inv.ep, bug2.RightHand, 0.3, false)
	rel.ep = inv.ep
	rel.kind = inv.kind
	rel.inviter = inv.inviter
	rel.token = token
	s.invites[id] = nil
	s.relocStep(id)
}

// PlacementsByKind returns how many relocations were completed per
// expansion type (index by epKind), for diagnostics and the expansion
// ablation bench.
func (s *Scheme) PlacementsByKind() map[string]int {
	return map[string]int{
		"flg":  s.placed[epFLG],
		"blg":  s.placed[epBLG],
		"iflg": s.placed[epIFLG],
	}
}

// FixedCount returns how many sensors are currently fixed nodes (exported
// for tests and result reporting).
func (s *Scheme) FixedCount() int {
	n := 0
	for _, st := range s.st {
		if st == stateFixed {
			n++
		}
	}
	return n
}

// MovableCount returns how many sensors are currently movable or
// relocating.
func (s *Scheme) MovableCount() int {
	n := 0
	for _, st := range s.st {
		if st == stateMovable || st == stateRelocating {
			n++
		}
	}
	return n
}

// nearestFixedWithin returns the nearest fixed sensor within radius r of
// pos, or NoParent. Used as a defensive re-attachment anchor.
func (s *Scheme) nearestFixedWithin(id int, r float64) int {
	w := s.w
	pos := w.Pos(id)
	best := core.NoParent
	bestD := math.Inf(1)
	for _, n := range w.NeighborsWithin(id, r) {
		if s.st[n.ID] != stateFixed {
			continue
		}
		if d := pos.Dist(n.Pos); d < bestD {
			bestD = d
			best = n.ID
		}
	}
	return best
}

// StateName returns a human-readable protocol state for sensor id
// (diagnostics).
func (s *Scheme) StateName(id int) string {
	switch s.st[id] {
	case stateWalking:
		return "walking"
	case stateAwaiting:
		return "awaiting"
	case stateFixed:
		return "fixed"
	case stateMovable:
		return "movable"
	case stateRelocating:
		return "relocating"
	default:
		return "unknown"
	}
}
