// Package cpvf implements the Connectivity-Preserved Virtual Force scheme
// (§4 of the paper). Disconnected sensors first walk toward the base
// station with BUG2 under the lazy-movement strategy (§4.1, §3.3); once
// connected, they disperse under repulsive virtual forces while choosing
// the maximum step size that provably preserves every maintained link
// (§4.2, Appendix A). Sensors blocked by their tree links may change parent
// through the LockTree protocol, and two optional oscillation-avoidance
// techniques (§6.3) suppress the scheme's characteristic dithering.
package cpvf

import (
	"math"

	"mobisense/internal/core"
	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// OscMode selects the oscillation-avoidance technique of §6.3.
type OscMode int

// Oscillation avoidance modes.
const (
	// OscNone disables oscillation avoidance (the base CPVF scheme).
	OscNone OscMode = iota + 1
	// OscOneStep cancels a move whose step size is below V*T/δ.
	OscOneStep
	// OscTwoStep cancels a move whose endpoint is within V*T/δ of the
	// endpoint of the previous step.
	OscTwoStep
)

// Config tunes the CPVF scheme.
type Config struct {
	// Oscillation selects the §6.3 avoidance technique (default OscNone).
	Oscillation OscMode
	// Delta is the oscillation-avoidance factor δ: the suppression
	// threshold is V*T/δ. Ignored by OscNone. Larger δ suppresses less.
	Delta float64
	// AllowParentChange lets a blocked sensor change its tree parent via
	// the LockTree protocol (§4.2). The paper found this improves
	// exploration; default true (disable for the ablation).
	AllowParentChange bool
	// StartDelayPeriods is the upper bound, in periods, of the random
	// delay before a disconnected sensor starts walking (§4.1: "a small
	// random time period").
	StartDelayPeriods float64
	// ForceGain scales the virtual-force magnitude before step-size
	// saturation. Larger gains disperse faster (and oscillate more); the
	// default is calibrated so the obstacle-free rc=60/rs=40 layout
	// approaches its equilibrium within the paper's 750 s horizon.
	ForceGain float64
	// DisableLazy turns off the §3.3 lazy-movement strategy during the
	// connectivity phase (ablation: every disconnected sensor walks every
	// period).
	DisableLazy bool
}

// DefaultConfig returns the paper's base CPVF configuration.
func DefaultConfig() Config {
	return Config{
		Oscillation:       OscNone,
		Delta:             4,
		AllowParentChange: true,
		StartDelayPeriods: 3,
		ForceGain:         6,
	}
}

// Scheme is one CPVF run's controller. Create with New, then Attach to a
// world and run the engine.
type Scheme struct {
	cfg Config
	w   *core.World

	lazy       *core.LazyCoordinator
	startDelay []float64
	// prevEnd[i] is the endpoint of sensor i's previous step, for two-step
	// oscillation avoidance.
	prevEnd []geom.Vec
	hasPrev []bool
	// lastParentChange[i] is the time sensor i last changed parent;
	// LockTree fails if the subtree contains a node that just changed.
	lastParentChange []float64
	// decideFns[i] is sensor i's prebuilt period handler, so rescheduling
	// does not allocate a fresh closure every period.
	decideFns []func()
	// Per-period scratch, reused across decisions (one decision runs at a
	// time on this scheme's world).
	linkScratch []link
	peerScratch []peer
	subScratch  []int
	inSub       []int32
	subEpoch    int32
	proxScratch []field.BoundaryProximity
	// failures arms the periodic stranded-sensor sweep after the first
	// death.
	failures bool
}

var _ core.Scheme = (*Scheme)(nil)

// New creates a CPVF scheme with the given configuration.
func New(cfg Config) *Scheme {
	if cfg.Delta <= 0 {
		cfg.Delta = 4
	}
	if cfg.ForceGain <= 0 {
		cfg.ForceGain = 6
	}
	return &Scheme{cfg: cfg}
}

// Name implements core.Scheme.
func (c *Scheme) Name() string { return "cpvf" }

// Attach implements core.Scheme: it determines initial connectivity with
// the §4.1 flood, builds BUG2 walkers for the disconnected sensors and
// schedules every sensor's periodic decisions.
func (c *Scheme) Attach(w *core.World) {
	c.w = w
	n := w.P.N
	c.startDelay = make([]float64, n)
	c.prevEnd = make([]geom.Vec, n)
	c.hasPrev = make([]bool, n)
	c.lastParentChange = make([]float64, n)
	c.inSub = make([]int32, n)
	for i := range c.lastParentChange {
		c.lastParentChange[i] = -1
	}
	c.decideFns = make([]func(), n)
	for i := 0; i < n; i++ {
		id := i
		c.decideFns[i] = func() { c.decide(id) }
	}

	w.FloodFromBase(w.P.Rc)

	walkers := make([]core.Walker, n)
	rng := w.E.Rand()
	for i := 0; i < n; i++ {
		walkers[i] = core.NewDirectWalker(w.F, w.Pos(i), w.F.Reference())
		if !w.Sensors[i].Connected {
			c.startDelay[i] = rng.Float64() * c.cfg.StartDelayPeriods * w.P.Period
		}
	}
	c.lazy = core.NewLazyCoordinator(w, walkers, core.LazyConfig{
		ConnectRadius: w.P.Rc,
		Disabled:      c.cfg.DisableLazy,
	})

	for i := 0; i < n; i++ {
		w.E.ScheduleAt(w.PeriodStart(i, 0), c.decideFns[i])
	}
}

// decide runs one period's decision for sensor id and re-schedules itself.
func (c *Scheme) decide(id int) {
	w := c.w
	if w.Sensors[id].Failed {
		return // dead sensors neither act nor reschedule
	}
	if w.Now() < w.P.Duration {
		w.E.Schedule(w.P.Period, c.decideFns[id])
	}
	if !w.Sensors[id].Connected {
		c.decideDisconnected(id)
		return
	}
	c.decideConnected(id)
}

// HandleFailure repairs CPVF's tree after sensor `victim` died with the
// given orphaned children (§7 failure-recovery extension): each orphan
// reattaches to a connected neighbor outside its own subtree; subtrees
// with no anchor in range revert to the §4.1 connectivity walk.
func (c *Scheme) HandleFailure(victim int, orphans []int) {
	w := c.w
	_ = victim // the world already detached and silenced the victim
	for _, o := range orphans {
		if w.Sensors[o].Failed {
			continue
		}
		pos := w.Pos(o)
		best := core.NoParent
		bestD := math.Inf(1)
		for _, n := range w.NeighborsWithin(o, w.P.Rc) {
			// The anchor must be rooted: a concurrently orphaned fragment
			// with a stale Connected flag would form an island.
			if !w.Sensors[n.ID].Connected || !w.Tree.InTree(n.ID) || w.Tree.IsAncestor(o, n.ID) {
				continue
			}
			if d := pos.Dist(n.Pos); d < bestD {
				bestD = d
				best = n.ID
			}
		}
		switch {
		case w.NearBase(o, w.P.Rc):
			w.Tree.SetParent(o, core.BaseParent)
			w.Msg.Count(core.MsgTreeCtl, 2)
		case best != core.NoParent && w.Tree.SetParent(o, best):
			w.Msg.Count(core.MsgTreeCtl, 2)
		default:
			// No anchor: the subtree walks back toward the base station.
			for _, m := range w.Tree.Subtree(o) {
				if w.Sensors[m].Failed {
					continue
				}
				w.Tree.Detach(m)
				w.Sensors[m].Connected = false
				c.lazy.ReplaceWalker(m, core.NewDirectWalker(w.F, w.Pos(m), w.F.Reference()))
			}
		}
	}

	// Arm the periodic heartbeat sweep for segments severed later.
	if !c.failures {
		c.failures = true
		var sweep func()
		sweep = func() {
			c.sweepStranded()
			if w.Now() < w.P.Duration {
				w.E.Schedule(w.P.Period, sweep)
			}
		}
		w.E.Schedule(0, sweep)
	}
	c.sweepStranded()
}

// sweepStranded sends physically severed, tree-attached sensors back to
// the connectivity walk (base-station heartbeat monitoring; only runs
// under attrition).
func (c *Scheme) sweepStranded() {
	w := c.w
	stranded := w.PhysicallyStranded(w.P.Rc)
	if len(stranded) == 0 {
		return
	}
	inStranded := make(map[int]bool, len(stranded))
	for _, m := range stranded {
		inStranded[m] = true
	}
	for _, m := range stranded {
		if w.Sensors[m].Failed {
			continue
		}
		w.Msg.Count(core.MsgReport, 1)
		w.Tree.Detach(m)
		w.Sensors[m].Connected = false
		// Walk straight toward the nearest surviving reachable sensor
		// (or the base station when none remains).
		target := w.F.Reference()
		bestD := w.Pos(m).Dist(target)
		for i, sen := range w.Sensors {
			if i == m || sen.Failed || !sen.Connected || inStranded[i] {
				continue
			}
			if d := w.Pos(i).Dist(w.Pos(m)); d < bestD {
				bestD = d
				target = w.Pos(i)
			}
		}
		c.lazy.ReplaceWalker(m, core.NewDirectWalker(w.F, w.Pos(m), target))
	}
}

// decideDisconnected advances the §4.1 connectivity walk.
func (c *Scheme) decideDisconnected(id int) {
	w := c.w
	if w.Now() < c.startDelay[id] {
		w.Stay(id, w.P.Period)
		return
	}
	// A rejoin walker can arrive at a position whose anchor has since
	// moved or died; head for the base station instead of idling there.
	if wk := c.lazy.Walker(id); wk.Arrived() || wk.Stuck() {
		c.lazy.ReplaceWalker(id, core.NewDirectWalker(w.F, w.Pos(id), w.F.Reference()))
	}
	res := c.lazy.Step(id)
	switch res.Outcome {
	case core.LazyJoined:
		w.Sensors[id].Connected = true
		w.Tree.SetParent(id, res.Parent)
	case core.LazyJoinedBase:
		w.Sensors[id].Connected = true
		w.Tree.SetParent(id, core.BaseParent)
	}
}

// decideConnected runs the §4.2 virtual-force step.
func (c *Scheme) decideConnected(id int) {
	w := c.w
	T := w.P.Period
	pos := w.Pos(id)

	// One broadcast to learn the neighborhood, plus one query per
	// maintained link for its motion state (§4.2: "obtains the information
	// of s''s current moving direction, moving speed and period end time
	// by communication").
	w.Msg.Count(core.MsgBeacon, 1)
	links := c.maintainedLinks(id)
	w.Msg.Count(core.MsgBeacon, len(links))

	force := c.force(id, pos)
	fl := force.Len()
	if fl < 1e-9 {
		w.Stay(id, T)
		c.recordEnd(id, pos)
		return
	}
	// force/fl is force.Unit() bit for bit: Unit divides by the same Len,
	// and fl >= 1e-9 = geom.Eps skips its zero-vector branch.
	dir := geom.V(force.X/fl, force.Y/fl)
	// The desired step scales with the force magnitude and saturates at
	// V·T, so near-equilibrium sensors make the small dithering steps that
	// §6.3's oscillation avoidance suppresses.
	desired := w.P.MaxStep() * min(1, c.cfg.ForceGain*fl)

	step := c.maxValidStep(id, pos, dir, desired, links)
	if step <= 1e-9 && c.cfg.AllowParentChange {
		if c.tryParentChange(id, pos) {
			links = c.maintainedLinks(id)
			step = c.maxValidStep(id, pos, dir, desired, links)
		}
	}

	step = c.applyOscillationAvoidance(id, pos, dir, step)

	if step <= 1e-9 {
		w.Stay(id, T)
		c.recordEnd(id, pos)
		return
	}
	dest := pos.Add(dir.Scale(step))
	w.BeginStep(id, dest, step, T)
	c.recordEnd(id, dest)
}

func (c *Scheme) recordEnd(id int, p geom.Vec) {
	c.prevEnd[id] = p
	c.hasPrev[id] = true
}

// applyOscillationAvoidance implements the §6.3 techniques: it returns the
// (possibly cancelled) step size.
func (c *Scheme) applyOscillationAvoidance(id int, pos, dir geom.Vec, step float64) float64 {
	if step <= 0 {
		return step
	}
	threshold := c.w.P.MaxStep() / c.cfg.Delta
	switch c.cfg.Oscillation {
	case OscOneStep:
		if step < threshold {
			return 0
		}
	case OscTwoStep:
		if c.hasPrev[id] && pos.Add(dir.Scale(step)).Dist(c.prevEnd[id]) < threshold {
			return 0
		}
	}
	return step
}

// force computes the repulsive virtual force on sensor id (§4.2): all
// neighbors within rc and all obstacle boundaries within rs repel, with
// magnitude decaying linearly to zero at the range limit.
func (c *Scheme) force(id int, pos geom.Vec) geom.Vec {
	w := c.w
	var f geom.Vec
	for _, n := range w.NeighborsWithin(id, w.P.Rc) {
		v := pos.Sub(n.Pos)
		d := v.Len()
		if d < 1e-9 {
			// Coincident sensors: break the tie with a deterministic
			// pseudo-random nudge derived from the ID.
			angle := float64(id) * 2.399963229728653 // golden angle
			f = f.Add(geom.V(math.Cos(angle), math.Sin(angle)))
			continue
		}
		// v/d is v.Unit() bit for bit: Unit divides by the same Len,
		// and d >= 1e-9 = geom.Eps skips its zero-vector branch.
		f = f.Add(geom.V(v.X/d, v.Y/d).Scale(1 - d/w.P.Rc))
	}
	c.proxScratch = w.F.BoundariesWithinAppend(c.proxScratch[:0], pos, w.P.Rs)
	for _, prox := range c.proxScratch {
		if prox.Dist < 1e-9 {
			continue
		}
		f = f.Add(pos.Sub(prox.Point).Unit().Scale(1 - prox.Dist/w.P.Rs))
	}
	return f
}

// link is one connection the sensor must preserve while moving.
type link struct {
	id     int  // peer sensor, or BaseParent for the base station
	isBase bool // the base station never moves
}

// maintainedLinks returns the tree links sensor id must keep: its parent
// and all of its children (§4.2). The returned slice is scratch reused by
// the next maintainedLinks call on this scheme.
func (c *Scheme) maintainedLinks(id int) []link {
	t := c.w.Tree
	out := c.linkScratch[:0]
	switch p := t.Parent(id); {
	case p == core.BaseParent:
		out = append(out, link{isBase: true})
	case p >= 0:
		out = append(out, link{id: p})
	}
	for _, child := range t.Children(id) {
		out = append(out, link{id: child})
	}
	c.linkScratch = out
	return out
}

// maxValidStep finds the largest step size from the candidate set
// {L, 0.9·L, …, 0.1·L, 0} (§4.2's search, with L the desired step, at most
// V·T) that (a) stays in free space and (b) satisfies the
// connectivity-preserving conditions for every maintained link.
func (c *Scheme) maxValidStep(id int, pos, dir geom.Vec, desired float64, links []link) float64 {
	w := c.w
	limit := min(desired, w.P.MaxStep())

	// Free-space limit along dir, with a small wall stand-off.
	freeLimit := limit
	if hit, ok := w.F.FirstHit(geom.Seg(pos, pos.Add(dir.Scale(limit)))); ok {
		freeLimit = max(0, hit.T*limit-0.1)
	}

	peers := c.linkPeers(links)
	for k := 10; k >= 1; k-- {
		step := float64(k) / 10 * limit
		if step > freeLimit {
			continue
		}
		if stepPreservesLinks(pos, dir, step, w.P.Rc, peers) {
			return step
		}
	}
	return 0
}

// peer is one maintained link's far end as a decision sees it: its
// position at t′, the end of its current period clamped to at least the
// decision time t (the base station and idle peers pin t′ = t), and
// (t′ − t)/T capped at 1, the share of our step done by then.
type peer struct {
	pos  geom.Vec
	frac float64
}

// linkPeers resolves the links' peers once per decision; every candidate
// step reads them. The returned slice is scratch reused by the next
// linkPeers call on this scheme.
func (c *Scheme) linkPeers(links []link) []peer {
	w := c.w
	now := w.Now()
	out := c.peerScratch[:0]
	for _, l := range links {
		var peerT1 float64
		var peerAtT1 geom.Vec
		if l.isBase {
			peerT1 = now
			peerAtT1 = w.F.Reference()
		} else {
			peerT1 = max(w.StepEndTime(l.id), now) // t' ≤ t+T; idle peers pin t' = t
			peerAtT1 = w.PosAt(l.id, peerT1)
		}
		frac := (peerT1 - now) / w.P.Period
		if frac > 1 {
			frac = 1
		}
		out = append(out, peer{pos: peerAtT1, frac: frac})
	}
	c.peerScratch = out
	return out
}

// stepPreservesLinks checks the two connectivity-preserving conditions of
// §4.2 for a candidate move of the given size during [t, t+T]:
//
//  1. the distance between s and s′ at time t′ (the end of s′'s current
//     period) is no greater than rc, and
//  2. the distance between s′'s position at t′ and s's position at t+T is
//     no greater than rc.
//
// WithinDist is Dist <= rc bit for bit, without the square root in
// almost every call.
func stepPreservesLinks(pos, dir geom.Vec, step, rc float64, peers []peer) bool {
	end := pos.Add(dir.Scale(step))
	for _, p := range peers {
		// Condition 1: our interpolated position at t'.
		mine := pos.Add(dir.Scale(step * p.frac))
		if !mine.WithinDist(p.pos, rc) {
			return false
		}
		// Condition 2: peer at t' vs our endpoint at t+T.
		if !p.pos.WithinDist(end, rc) {
			return false
		}
	}
	return true
}

// tryParentChange attempts the §4.2 parent-change protocol: lock the
// subtree rooted at id (LockTree / UnLockTree), pick a connected neighbor
// outside the subtree as the new parent, and join it. Returns whether the
// parent changed.
func (c *Scheme) tryParentChange(id int, pos geom.Vec) bool {
	w := c.w
	t := w.Tree

	// Candidate parents: connected neighbors outside our subtree. The
	// subtree membership test uses an epoch-stamped array instead of a
	// per-call map.
	sub := t.SubtreeAppend(c.subScratch[:0], id)
	c.subScratch = sub
	c.subEpoch++
	for _, s := range sub {
		c.inSub[s] = c.subEpoch
	}
	cur := t.Parent(id)
	best := core.NoParent
	bestDist := math.Inf(1)
	now := w.Now()
	for _, n := range w.NeighborsWithin(id, w.P.Rc) {
		j := n.ID
		if !w.Sensors[j].Connected || c.inSub[j] == c.subEpoch || j == cur {
			continue
		}
		// The candidate only learns of the new link at its next decision:
		// its committed step must not carry it out of range first.
		if !w.PosAt(j, max(w.StepEndTime(j), now)).WithinDist(pos, w.P.Rc) {
			continue
		}
		if d := pos.Dist(n.Pos); d < bestDist {
			bestDist = d
			best = j
		}
	}
	if best == core.NoParent {
		return false
	}

	// LockTree: one message down to each subtree node; a node that changed
	// parent this very period rejects the lock (it is "in the middle of a
	// period" in the paper's sense).
	w.Msg.Count(core.MsgTreeCtl, len(sub))
	for _, s := range sub {
		if s != id && now-c.lastParentChange[s] < w.P.Period {
			// UnLockTree travels back up.
			w.Msg.Count(core.MsgTreeCtl, len(sub))
			return false
		}
	}

	// Join the new parent, then unlock the subtree.
	w.Msg.Count(core.MsgTreeCtl, 2) // join request + ack
	ok := t.SetParent(id, best)
	w.Msg.Count(core.MsgTreeCtl, len(sub)) // UnLockTree
	if ok {
		c.lastParentChange[id] = now
	}
	return ok
}
