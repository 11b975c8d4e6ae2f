package floor

import (
	"math"

	"mobisense/internal/core"
	"mobisense/internal/geom"
)

// epCandidate is a discovered expansion point.
type epCandidate struct {
	pos  geom.Vec
	kind epKind
}

// placementSpacing is the fraction of the expansion radius below which two
// placements are considered duplicates.
const placementSpacing = 0.7

// pendingTTLPeriods is how long an advertised EP stays pending before the
// inviter forgets it.
const pendingTTLPeriods = 120

// maxPendings caps how many EPs one inviter keeps outstanding.
const maxPendings = 8

// expandStep is one period of a fixed node's Algorithm-2 thread 1: while
// at least one EP exists, advertise it with a random-walk invitation. New
// EPs are discovered from the node itself and from its virtual/pending
// chain anchors, so chains extend one EP per period regardless of
// acceptance and travel latency. A node with no EPs, no pending
// advertisements and no in-flight virtuals stops checking (§5.5.2) until a
// new child wakes it.
func (s *Scheme) expandStep(id int) {
	w := s.w
	w.Stay(id, w.P.Period) // fixed nodes do not move
	w.Msg.Count(core.MsgBeacon, 1)
	if s.epDone[id] && len(s.ownedVirtuals[id]) == 0 && len(s.pendings[id]) == 0 {
		return
	}

	// Expire stale advertisements. When the head of the queue expires the
	// whole queue goes with it: the younger EPs are anchored beyond the
	// abandoned one, and accepting them would create disconnected islands.
	// Unaccepted EPs thereby always form a suffix of each chain.
	now := w.Now()
	if len(s.pendings[id]) > 0 && s.pendings[id][0].expires <= now {
		s.pendings[id] = nil
	}

	// Discover new EPs (throttled by the backoff only for discovery, the
	// expensive part) and queue them as pending advertisements.
	if now >= s.nextInvite[id] && len(s.pendings[id]) < maxPendings {
		eps := s.discoverEPs(id)
		if len(eps) == 0 && len(s.ownedVirtuals[id]) == 0 && len(s.pendings[id]) == 0 {
			s.epDone[id] = true
			return
		}
		for _, ep := range eps {
			s.pendings[id] = append(s.pendings[id], pendingEP{
				pos:     ep.pos,
				kind:    ep.kind,
				expires: now + pendingTTLPeriods*w.P.Period,
			})
		}
		if len(eps) == 0 {
			// Nothing new: back off discovery while ads are in flight.
			s.inviteBackoff[id] = math.Min(math.Max(1, s.inviteBackoff[id]*1.5), 8)
		} else {
			s.inviteBackoff[id] = 0
		}
		s.nextInvite[id] = now + s.inviteBackoff[id]*w.P.Period
	}

	// Advertise only the oldest pending EP (several walks per period,
	// staggered across nodes): acceptances stay FIFO per inviter, so
	// chains fill strictly front-to-back.
	if len(s.pendings[id]) == 0 {
		return
	}
	head := s.pendings[id][0]
	for k := 0; k < s.cfg.MaxInvitesPerPeriod; k++ {
		s.sendInvitation(id, epCandidate{pos: head.pos, kind: head.kind})
	}
}

// acceptPending grants an acceptance for inviter's EP at pos only when it
// matches the oldest pending advertisement (FIFO chain filling); on success
// the pending entry is consumed.
func (s *Scheme) acceptPending(inviter int, pos geom.Vec) bool {
	list := s.pendings[inviter]
	if len(list) == 0 || list[0].pos.Dist2(pos) >= 1 {
		return false
	}
	s.pendings[inviter] = list[1:]
	return true
}

// pendingNear reports whether any inviter (this node's own queue exactly,
// other nodes' via the once-per-period cache) already advertises an EP
// within the placement spacing of p.
func (s *Scheme) pendingNear(id int, p geom.Vec) bool {
	limit := placementSpacing * s.re
	limit2 := limit * limit
	for _, pe := range s.pendings[id] {
		if pe.pos.Dist2(p) <= limit2 {
			return true
		}
	}
	return false
}

// discoverEPs finds up to MaxInvitesPerPeriod expansion points in priority
// order: floor-line guided first, then boundary guided, then inter-floor
// guided (§5.5.1). Discovery runs from the node's own position and from
// each virtual fixed node it owns — virtual nodes count as fixed (§5.5.2),
// which pipelines chain growth ahead of sensors still in transit.
func (s *Scheme) discoverEPs(id int) []epCandidate {
	budget := s.cfg.MaxInvitesPerPeriod
	// Both slices are per-run scratch: the caller consumes the result
	// before the next discovery, so the backing arrays are reused.
	out := s.epScratch[:0]
	anchors := s.anchorScratch[:0]
	anchors = append(anchors, s.w.Pos(id))
	for _, v := range s.ownedVirtuals[id] {
		anchors = append(anchors, v.pos)
	}
	for _, p := range s.pendings[id] {
		anchors = append(anchors, p.pos)
	}
	for _, anchor := range anchors {
		if len(out) >= budget {
			break
		}
		if ep, ok := s.flgEP(id, anchor); ok {
			out = append(out, ep)
		}
	}
	for _, anchor := range anchors {
		if len(out) >= budget {
			break
		}
		if ep, ok := s.blgEP(id, anchor); ok {
			out = append(out, ep)
		}
	}
	// IFLG fills slivers between settled pairs. It has the lowest priority
	// (§5.5.1): it only competes for movables once this node has no chain
	// growth in flight and the bulk deployment is over (late phase), so
	// whole-tile FLG placements are never starved by sliver filling.
	if len(out) == 0 && len(s.ownedVirtuals[id]) == 0 && len(s.pendings[id]) == 0 &&
		s.w.Now() > s.w.P.Duration/2 {
		out = s.iflgEPs(out, id, budget)
	}
	s.epScratch = out
	s.anchorScratch = anchors
	return out
}

// flgEP implements FLG-expansion from the given anchor (the node itself or
// a virtual fixed node it owns): find the floor-line segment covered by
// the sensing range, take the uncovered frontier endpoint farthest from
// the y axis, and place the EP on the floor line at the expansion radius.
func (s *Scheme) flgEP(id int, pos geom.Vec) (epCandidate, bool) {
	w := s.w
	rs := w.P.Rs
	lineY := s.fl.NearestLineY(pos.Y)
	dy := math.Abs(pos.Y - lineY)
	if dy >= rs {
		return epCandidate{}, false
	}
	half := math.Sqrt(rs*rs - dy*dy)
	// Far-from-y-axis endpoint first (§5.5.1), then the near one, which
	// lets floors also fill westward past obstacles.
	for _, sign := range []float64{1, -1} {
		frontier := geom.V(pos.X+sign*half, lineY)
		if !w.F.Bounds().Contains(frontier) || !w.F.Free(frontier) {
			continue
		}
		if !w.F.SegmentFree(pos, frontier) {
			continue
		}
		if s.reg.coveredQuery(w, id, frontier, rs, skipSpec{id: id, pos: pos, usePos: true}) {
			continue
		}
		var ep geom.Vec
		if dy < s.re {
			ep = geom.V(pos.X+sign*math.Sqrt(s.re*s.re-dy*dy), lineY)
		} else {
			ep = pos.Towards(frontier, s.re)
		}
		if s.placementOK(id, pos, ep) {
			return epCandidate{pos: ep, kind: epFLG}, true
		}
	}
	return epCandidate{}, false
}

// blgEP implements BLG-expansion from the given anchor: pick a boundary
// segment visible in the sensing range, find its frontier endpoint by the
// left-hand rule, and place the EP toward it on the expansion circle.
func (s *Scheme) blgEP(id int, pos geom.Vec) (epCandidate, bool) {
	w := s.w
	s.segScratch = w.F.BoundarySegmentsWithinAppend(s.segScratch[:0], pos, w.P.Rs)
	segs := s.segScratch
	if len(segs) == 0 {
		return epCandidate{}, false
	}
	// Random segment per Algorithm 2; iterate from a random offset so one
	// blocked segment does not hide the others.
	start := w.E.Rand().IntN(len(segs))
	for i := 0; i < len(segs); i++ {
		bs := segs[(start+i)%len(segs)]
		// The field's horizontal edges are redundant with the first/last
		// floor lines by the floor construction (each is within rs of a
		// line); expanding along them wastes sensors. The vertical field
		// edge far from the reference point is likewise redundant with the
		// floor-line ends that reach it. Only the near (vine riser) edge
		// and obstacle boundaries stay eligible.
		if w.F.IsFrame(bs.Solid) {
			if math.Abs(bs.Seg.B.Y-bs.Seg.A.Y) < 1e-9 {
				continue
			}
			mid := w.F.Bounds().Center().X
			if bs.Seg.A.X > mid && w.F.Reference().X <= mid {
				continue
			}
		}
		// Boundary edges run counter-clockwise, so the left-hand-rule
		// frontier is the far end of the visible chord.
		frontier := bs.Seg.B
		if !w.F.SegmentFree(pos, frontier) {
			continue
		}
		if s.reg.coveredQuery(w, id, frontier, w.P.Rs, skipSpec{id: id, pos: pos, usePos: true}) {
			continue
		}
		ep := pos.Towards(frontier, s.re)
		if s.placementOK(id, pos, ep) {
			return epCandidate{pos: ep, kind: epBLG}, true
		}
	}
	return epCandidate{}, false
}

// iflgEPs implements IFLG-expansion: for each same-floor fixed child, the
// two expansion circles intersect at two points; the one on the side of an
// uncovered inter-floor probe becomes an EP (§5.5.1, Figure 7d). Results
// are appended to out (caller-held scratch) and the grown slice returned.
func (s *Scheme) iflgEPs(out []epCandidate, id, budget int) []epCandidate {
	w := s.w
	pos := w.Pos(id)
	base := len(out)
	floorK := s.fl.Index(pos.Y)
	for _, c := range w.Tree.Children(id) {
		if len(out)-base >= budget {
			break
		}
		if s.st[c] != stateFixed {
			continue
		}
		cpos := w.Pos(c)
		if s.fl.Index(cpos.Y) != floorK {
			continue
		}
		d := pos.Dist(cpos)
		if d < 1e-6 || d > 2*s.re {
			continue
		}
		p1, p2, ok := (geom.Circle{C: pos, R: s.re}).IntersectCircle(geom.Circle{C: cpos, R: s.re})
		if !ok {
			continue
		}
		for _, q := range []geom.Vec{p1, p2} {
			if len(out)-base >= budget {
				break
			}
			probe, ok := s.interFloorProbe(pos, cpos, q, floorK)
			if !ok {
				continue
			}
			// A hole exists only if the probe is covered by nobody —
			// including this sensor and its child.
			if pos.WithinDist(probe, w.P.Rs) || cpos.WithinDist(probe, w.P.Rs) {
				continue
			}
			if !w.F.Free(probe) {
				continue
			}
			if s.reg.coveredQuery(w, id, probe, w.P.Rs, noSkip) {
				continue
			}
			if s.placementOK(id, pos, q) {
				out = append(out, epCandidate{pos: q, kind: epIFLG})
			}
		}
	}
	return out
}

// interFloorProbe picks the probe point between the pair midpoint and the
// inter-floor line on the side of candidate point q.
func (s *Scheme) interFloorProbe(pos, cpos, q geom.Vec, floorK int) (geom.Vec, bool) {
	lineY := s.fl.LineY(floorK)
	var interY float64
	if q.Y >= lineY {
		if floorK >= s.fl.Count()-1 {
			return geom.Vec{}, false
		}
		interY = s.fl.InterLineY(floorK)
	} else {
		if floorK == 0 {
			return geom.Vec{}, false
		}
		interY = s.fl.InterLineY(floorK - 1)
	}
	mid := pos.Lerp(cpos, 0.5)
	probe := geom.V(mid.X, interY)
	if !s.w.F.Bounds().Contains(probe) {
		return geom.Vec{}, false
	}
	return probe, true
}

// placementOK validates an EP: free space, reachable in a straight line
// from the inviter, inside the field, and not already taken by another
// fixed or virtual node or one of the inviter's own pending EPs.
func (s *Scheme) placementOK(id int, from, ep geom.Vec) bool {
	w := s.w
	if !w.F.Bounds().Contains(ep) || !w.F.Free(ep) {
		return false
	}
	if !w.F.SegmentFree(from, ep) {
		return false
	}
	return !s.placementTaken(ep, id) && !s.pendingNear(id, ep)
}

// placementTaken reports whether a fixed or virtual node other than
// `exclude` already sits within placementSpacing·re of ep.
func (s *Scheme) placementTaken(ep geom.Vec, exclude int) bool {
	limit := placementSpacing * s.re
	limit2 := limit * limit
	for _, k := range s.reg.queryFloors(ep) {
		if k < 0 {
			continue
		}
		for _, rec := range s.reg.nodesInFloor(k) {
			if !rec.virtual && rec.id == exclude {
				continue
			}
			if rec.pos.Dist2(ep) <= limit2 {
				return true
			}
		}
	}
	return false
}
