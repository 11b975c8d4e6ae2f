package floor

import (
	"math"

	"mobisense/internal/bug2"
	"mobisense/internal/core"
	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// Config tunes the FLOOR scheme.
type Config struct {
	// TTL is the invitation random-walk time-to-live in hops (§5.5.2,
	// Table 1 varies it as a fraction of N). Zero selects 0.2·N.
	TTL int
	// ExclusiveFrac is the movability threshold (§5.3): a sensor is
	// movable when the area it covers exclusively is below this fraction
	// of its full disk area.
	ExclusiveFrac float64
	// MaxInvitesPerPeriod caps how many expansion points one fixed node
	// advertises per period.
	MaxInvitesPerPeriod int
	// InvitesNeeded is how many invitations a movable sensor collects
	// before accepting the best one (§5.5.2 "a certain number"); collecting
	// several lets the FLG > BLG > IFLG priority actually bite.
	InvitesNeeded int
	// PatiencePeriods bounds how long a movable holding fewer than
	// InvitesNeeded invitations waits before acting on what it has.
	PatiencePeriods int
	// StableJoinPeriods is how many periods without a new arrival make
	// the base station start phase 2 (its "certain time has elapsed").
	StableJoinPeriods int
	// StartDelayPeriods bounds the random delay before a disconnected
	// sensor starts walking.
	StartDelayPeriods float64
	// DirectConnectWalk replaces Algorithm 1's three-leg route (floor
	// line → y axis → reference point) with CPVF's straight BUG2 walk
	// (ablation of §5.2's overlap-reducing trajectory).
	DirectConnectWalk bool
	// DisablePriority makes movables accept the first collected
	// invitation instead of the highest-priority one (ablation of the
	// FLG > BLG > IFLG ordering, §5.5.1).
	DisablePriority bool
}

// DefaultConfig returns the FLOOR configuration used by the paper's
// experiments (TTL = 0.2·N).
func DefaultConfig() Config {
	return Config{
		TTL:                 0, // 0.2·N at Attach time
		ExclusiveFrac:       0.6,
		MaxInvitesPerPeriod: 2,
		InvitesNeeded:       1,
		PatiencePeriods:     5,
		StableJoinPeriods:   20,
		StartDelayPeriods:   3,
	}
}

// nodeState is a sensor's role in the FLOOR protocol.
type nodeState int

const (
	// stateWalking: phase-1 connectivity walk (Algorithm 1).
	stateWalking nodeState = iota + 1
	// stateAwaiting: connected, waiting for the movable identification
	// phase.
	stateAwaiting
	// stateFixed: a fixed node; discovers EPs and invites movables.
	stateFixed
	// stateMovable: free to relocate; collects invitations.
	stateMovable
	// stateRelocating: en route to an accepted expansion point.
	stateRelocating
)

// epKind classifies expansion points; larger is higher priority (§5.5.1).
type epKind int

const (
	epIFLG epKind = 1
	epBLG  epKind = 2
	epFLG  epKind = 3
)

// invitation is a random-walk Invitation collected by a movable sensor.
type invitation struct {
	ep      geom.Vec
	kind    epKind
	inviter int
	hops    int
}

// relocation tracks a movable sensor traveling to its accepted EP. The
// planner is embedded by value and re-initialized in place per relocation,
// so accepting an invitation allocates nothing.
type relocation struct {
	planner bug2.Planner
	ep      geom.Vec
	kind    epKind
	inviter int
	token   int // virtual-node registry token
}

// Scheme is one FLOOR run's controller.
type Scheme struct {
	cfg Config
	w   *core.World

	fl       Floors
	reg      *registry
	lazy     *core.LazyCoordinator
	st       []nodeState
	epDone   []bool
	invites  [][]invitation
	reloc    []relocation
	phase    int
	lastJoin float64
	connectR float64 // min(rc, 2·rs), §5.2
	re       float64 // expansion-circle radius min(rc, rs), §5.5

	inviteBackoff []float64 // periods between re-invitations
	nextInvite    []float64 // earliest next invitation time

	// ownedVirtuals[i] holds the virtual fixed nodes inviter i installed
	// whose sensors are still in transit. Virtual nodes count as fixed for
	// EP discovery (§5.5.2), so chains of EPs extend ahead of traveling
	// sensors instead of serializing on arrival latency.
	ownedVirtuals [][]virtualAnchor

	// placed counts completed relocations per expansion kind.
	placed [epFLG + 1]int

	// failures arms the periodic stranded-sensor heartbeat sweep once the
	// first sensor has died.
	failures bool

	// anchor[i] is the fixed sensor movable i last found within rc (see
	// anchored), or NoParent.
	anchor []int

	// firstInvite[i] is when movable i received its first pending
	// invitation (for the patience timeout); zero when none pending.
	firstInvite []float64

	// pendings[i] holds inviter i's advertised-but-unaccepted EPs. They
	// anchor further chain EPs (decoupling chain growth from acceptance
	// latency) and are re-advertised every period until accepted or
	// expired, per Algorithm 2's thread 1 loop.
	pendings [][]pendingEP

	// allPendingPos caches every inviter's pending EP positions, rebuilt
	// once per period by the monitor; placement checks consult it so
	// parallel chains never target overlapping spots.
	allPendingPos []geom.Vec

	// decideFns[i] is the prebuilt per-period event closure for sensor i
	// and monitorFn the base station's; building them once in Attach keeps
	// the event loop's rescheduling allocation-free.
	decideFns []func()
	monitorFn func()

	// Per-run scratch reused across periods by the discovery and
	// classification hot paths.
	epScratch     []epCandidate
	anchorScratch []geom.Vec
	segScratch    []field.BoundarySegment
	othersScratch []geom.Vec
}

// pendingEP is an advertised expansion point awaiting acceptance.
type pendingEP struct {
	pos     geom.Vec
	kind    epKind
	expires float64
}

// virtualAnchor is a pending virtual fixed node usable as an EP anchor.
type virtualAnchor struct {
	token int
	pos   geom.Vec
	kind  epKind
}

var _ core.Scheme = (*Scheme)(nil)

// New creates a FLOOR scheme with the given configuration.
func New(cfg Config) *Scheme {
	def := DefaultConfig()
	if cfg.ExclusiveFrac <= 0 {
		cfg.ExclusiveFrac = def.ExclusiveFrac
	}
	if cfg.MaxInvitesPerPeriod <= 0 {
		cfg.MaxInvitesPerPeriod = def.MaxInvitesPerPeriod
	}
	if cfg.InvitesNeeded <= 0 {
		cfg.InvitesNeeded = def.InvitesNeeded
	}
	if cfg.PatiencePeriods <= 0 {
		cfg.PatiencePeriods = def.PatiencePeriods
	}
	if cfg.StableJoinPeriods <= 0 {
		cfg.StableJoinPeriods = def.StableJoinPeriods
	}
	if cfg.StartDelayPeriods <= 0 {
		cfg.StartDelayPeriods = def.StartDelayPeriods
	}
	return &Scheme{cfg: cfg}
}

// Name implements core.Scheme.
func (s *Scheme) Name() string { return "floor" }

// Attach implements core.Scheme.
func (s *Scheme) Attach(w *core.World) {
	s.w = w
	n := w.P.N
	if s.cfg.TTL <= 0 {
		s.cfg.TTL = int(math.Max(1, 0.2*float64(n)))
	}
	s.connectR = math.Min(w.P.Rc, 2*w.P.Rs)
	// Expansion radius min(rc, rs) (§5.5), less a safety margin covering
	// the relocation arrival tolerance so that a chain link never exceeds
	// the communication range.
	s.re = math.Min(w.P.Rc, w.P.Rs) - 0.5
	s.fl = NewFloors(w.F.Bounds(), w.P.Rs)
	s.reg = newRegistry(s.fl, w.F)
	s.st = make([]nodeState, n)
	s.epDone = make([]bool, n)
	s.invites = make([][]invitation, n)
	s.reloc = make([]relocation, n)
	s.inviteBackoff = make([]float64, n)
	s.nextInvite = make([]float64, n)
	s.ownedVirtuals = make([][]virtualAnchor, n)
	s.firstInvite = make([]float64, n)
	s.anchor = make([]int, n)
	for i := range s.anchor {
		s.anchor[i] = core.NoParent
	}
	s.pendings = make([][]pendingEP, n)
	s.phase = 1
	s.decideFns = make([]func(), n)
	for i := 0; i < n; i++ {
		id := i
		s.decideFns[i] = func() { s.decide(id) }
	}
	s.monitorFn = s.monitor

	w.FloodFromBase(s.connectR)

	// Build the Algorithm-1 walkers for disconnected sensors; already
	// connected ones await phase 2.
	walkers := make([]core.Walker, n)
	startDelay := make([]float64, n)
	rng := w.E.Rand()
	for i := 0; i < n; i++ {
		pos := w.Pos(i)
		walkers[i] = s.newConnectWalker(pos)
		if w.Sensors[i].Connected {
			s.st[i] = stateAwaiting
		} else {
			s.st[i] = stateWalking
			startDelay[i] = rng.Float64() * s.cfg.StartDelayPeriods * w.P.Period
		}
	}
	s.lazy = core.NewLazyCoordinator(w, walkers, core.LazyConfig{ConnectRadius: s.connectR})

	for i := 0; i < n; i++ {
		w.E.ScheduleAt(math.Max(w.PeriodStart(i, 0), startDelay[i]), s.decideFns[i])
	}
	// Global phase monitor (the base station's coordination role).
	w.E.ScheduleAt(0, s.monitorFn)
}

// newConnectWalker builds the three-leg route of Algorithm 1: to the
// nearest floor line, then along it to the y axis, then to the reference
// point. The first two legs end at the first obstacle contact.
func (s *Scheme) newConnectWalker(pos geom.Vec) core.Walker {
	if s.cfg.DirectConnectWalk {
		return core.NewDirectWalker(s.w.F, pos, s.w.F.Reference())
	}
	lineY := s.fl.NearestLineY(pos.Y)
	xAxis := s.w.F.Bounds().Min.X
	legs := []core.Leg{
		{Target: geom.V(pos.X, lineY), StopOnHit: true},
		{Target: geom.V(xAxis, lineY), StopOnHit: true},
		{Target: s.w.F.Reference()},
	}
	return core.NewRouteWalker(s.w.F, pos, legs, bug2.RightHand)
}

// monitor is the base station's once-per-period coordination event: it
// starts phase 2 when every sensor has reported or arrivals have gone
// quiet (§5.3).
func (s *Scheme) monitor() {
	w := s.w
	if w.Now() < w.P.Duration {
		w.E.Schedule(w.P.Period, s.monitorFn)
	}
	// Refresh the global pending-EP cache (stale by at most one period).
	s.allPendingPos = s.allPendingPos[:0]
	for i := range s.pendings {
		for _, p := range s.pendings[i] {
			s.allPendingPos = append(s.allPendingPos, p.pos)
		}
	}
	// Under attrition, the base station's heartbeat monitoring sends
	// severed segments back to re-join (§7 extension).
	if s.failures {
		s.sweepStranded()
	}
	if s.phase != 1 {
		return
	}
	cc := w.ConnectedCount()
	quiet := w.Now()-s.lastJoin > float64(s.cfg.StableJoinPeriods)*w.P.Period
	if cc == w.P.N || (cc > 0 && quiet && w.Now() > float64(s.cfg.StableJoinPeriods)*w.P.Period) {
		s.identifyMovables()
		s.phase = 3
	}
}

// decide dispatches one period's action for sensor id by protocol state.
func (s *Scheme) decide(id int) {
	w := s.w
	if w.Sensors[id].Failed {
		return // dead sensors neither act nor reschedule
	}
	if w.Now() < w.P.Duration {
		w.E.Schedule(w.P.Period, s.decideFns[id])
	}
	switch s.st[id] {
	case stateWalking:
		s.walkStep(id)
	case stateAwaiting:
		w.Stay(id, w.P.Period)
	case stateFixed:
		s.expandStep(id)
	case stateMovable:
		s.movableStep(id)
	case stateRelocating:
		s.relocStep(id)
	}
}

// walkStep advances the phase-1 connectivity walk.
func (s *Scheme) walkStep(id int) {
	w := s.w
	// A rejoin walker can arrive at a position whose anchor has since
	// moved or died; pick a fresh target instead of idling there.
	if wk := s.lazy.Walker(id); wk.Arrived() || wk.Stuck() {
		s.lazy.ReplaceWalker(id, s.rejoinWalker(w.Pos(id)))
	}
	res := s.lazy.Step(id)
	switch res.Outcome {
	case core.LazyJoined, core.LazyJoinedBase:
		parent := core.BaseParent
		if res.Outcome == core.LazyJoined {
			parent = res.Parent
		}
		w.Sensors[id].Connected = true
		w.Tree.SetParent(id, parent)
		s.lastJoin = w.Now()
		// Arrival report to the base; the response carries the ancestor
		// list (§5.3).
		if d := w.Tree.Depth(id); d > 0 {
			w.Msg.Count(core.MsgReport, 2*d)
		}
		if s.phase == 3 {
			// Late arrival: classify immediately.
			s.classifyLateJoiner(id)
		} else {
			s.st[id] = stateAwaiting
		}
	}
}

// relocStep advances a movable sensor toward its accepted EP.
func (s *Scheme) relocStep(id int) {
	w := s.w
	r := &s.reloc[id]
	moved := r.planner.Advance(w.P.MaxStep())
	w.BeginStep(id, r.planner.Pos(), moved, w.P.Period)
	switch r.planner.Status() {
	case bug2.StatusArrived:
		s.placed[r.kind]++
		s.becomeFixed(id, r)
	case bug2.StatusStuck:
		// EP unreachable: release the claim and return to the movable
		// pool.
		s.reg.removeVirtual(r.token)
		s.dropOwnedVirtual(r.inviter, r.token)
		s.st[id] = stateMovable
	}
}

// dropOwnedVirtual removes a virtual anchor from its inviter's owned list
// and wakes the inviter: the hole left behind is a fresh expansion
// opportunity.
func (s *Scheme) dropOwnedVirtual(inviter, token int) {
	if inviter < 0 || inviter >= len(s.ownedVirtuals) {
		return
	}
	list := s.ownedVirtuals[inviter]
	for i := range list {
		if list[i].token == token {
			list[i] = list[len(list)-1]
			s.ownedVirtuals[inviter] = list[:len(list)-1]
			s.epDone[inviter] = false
			s.inviteBackoff[inviter] = 0
			s.nextInvite[inviter] = 0
			return
		}
	}
}

// becomeFixed finalizes an arrival at an EP: join the inviter in the tree,
// replace the virtual node with the real one, and start expanding.
func (s *Scheme) becomeFixed(id int, r *relocation) {
	w := s.w
	s.reg.removeVirtual(r.token)
	s.dropOwnedVirtual(r.inviter, r.token)
	s.st[id] = stateFixed
	w.Sensors[id].Connected = true
	s.epDone[id] = false
	s.inviteBackoff[id] = 0
	s.nextInvite[id] = 0
	// With chained EPs the inviter may be beyond the connect radius;
	// prefer the nearest fixed neighbor (normally the chain predecessor),
	// falling back to the inviter whose virtual place-holder bridged the
	// gap until the rest of the chain lands.
	parent := s.nearestFixedWithin(id, s.connectR)
	if parent == core.NoParent {
		parent = r.inviter
	}
	if parent == id || !w.Tree.SetParent(id, parent) {
		if alt := s.nearestFixedWithin(id, s.connectR); alt != core.NoParent && alt != parent {
			w.Tree.SetParent(id, alt)
		}
	}
	s.reg.addFixed(id, w.Pos(id))
	if d := w.Tree.Depth(id); d > 0 {
		w.Msg.Count(core.MsgReport, 2*d)
	}
	// A new child creates fresh expansion opportunities (notably IFLG) for
	// the inviter: wake it if it had gone dormant.
	if r.inviter >= 0 && r.inviter < len(s.epDone) {
		s.epDone[r.inviter] = false
		s.inviteBackoff[r.inviter] = 0
		s.nextInvite[r.inviter] = 0
	}
	// Self-healing: neighbors that bridged a chain gap with an over-long
	// parent link re-parent to the new arrival when it is closer.
	myPos := w.Pos(id)
	for _, n := range w.NeighborsWithin(id, s.connectR) {
		// NeighborsWithin never yields id itself, so only the state
		// filter remains.
		if s.st[n.ID] != stateFixed {
			continue
		}
		par := w.Tree.Parent(n.ID)
		if par < 0 && par != core.NoParent {
			continue // base links are always short
		}
		var parLink float64
		if par == core.NoParent {
			parLink = math.Inf(1)
		} else {
			parLink = n.Pos.Dist(w.Pos(par))
		}
		if parLink > w.P.Rc && n.Pos.Dist(myPos) < parLink {
			if w.Tree.SetParent(n.ID, id) {
				w.Msg.Count(core.MsgTreeCtl, 2)
			}
		}
	}
}

// classifyLateJoiner decides fixed-vs-movable for a sensor that connected
// after phase 2 ran.
func (s *Scheme) classifyLateJoiner(id int) {
	if s.isExclusiveCoverageLow(id) {
		s.st[id] = stateMovable
		s.w.Sensors[id].Connected = false
		s.w.Tree.Detach(id)
		return
	}
	s.st[id] = stateFixed
	s.reg.addFixed(id, s.w.Pos(id))
}
