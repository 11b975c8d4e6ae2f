// Package sim provides the discrete-event simulation engine underlying the
// deployment schemes: a time-ordered event queue with deterministic
// tie-breaking and a seeded random source. The paper's evaluation (§4.3)
// uses an event-based simulator; this is its Go equivalent.
package sim

import (
	"math/rand/v2"
	"sync"
)

// Engine is a discrete-event scheduler. Time is in seconds. Events
// scheduled for the same instant fire in scheduling order, which makes runs
// with the same seed byte-for-byte reproducible.
//
// Pending events live in a few in-order FIFO lanes and a binary heap. A
// push goes to the first lane whose newest event is not later than it,
// in O(1), and to the heap only when every lane's tail is later. Most
// pushes are a sensor rescheduling itself one period on; a periodic tick
// further ahead (a trace sampler, a failure injector) sits at one lane's
// tail, and the next lane takes the period reschedules behind it. Events
// pop in (time, seq) order: that order is strict and total and seq only
// grows, so every lane stays sorted and the earliest pending event is
// always one of the heads.
type Engine struct {
	now   float64
	seq   uint64
	heap  eventHeap
	lanes [numLanes]eventRing
	rng   *rand.Rand
}

// numLanes is the number of in-order lanes, sized from measured traffic.
// A run's period reschedules need one lane, and a ticker stepping further
// ahead than a period (the trace sampler) needs one more, so two lanes
// keep nearly every push of every e2ebench workload off the heap. A trace
// sampler together with a failure injector would need three.
const numLanes = 2

// queues holds an engine's event arrays while they sit in queuePool.
type queues struct {
	heap  eventHeap
	lanes [numLanes][]event
}

// queuePool recycles event arrays across engines: batch sweeps build one
// engine per run, and regrowing the queues to thousands of events every
// run is pure GC pressure.
var queuePool sync.Pool

// NewEngine creates an engine whose random source is seeded with seed.
// The event queues reuse pooled arrays when available (see Release);
// their capacity never influences event ordering, so pooled engines stay
// byte-for-byte deterministic.
func NewEngine(seed uint64) *Engine {
	e := &Engine{
		rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
	if v := queuePool.Get(); v != nil {
		q := v.(*queues)
		e.heap = q.heap[:0]
		for i := range e.lanes {
			e.lanes[i].buf = q.lanes[i]
		}
	}
	return e
}

// Release returns the engine's event arrays to the shared pool for future
// engines. Pending events are dropped and their closures released. The
// engine must not be used after Release.
func (e *Engine) Release() {
	h := e.heap[:cap(e.heap)]
	clear(h) // drop closure references so pooled arrays retain nothing
	q := &queues{heap: h[:0]}
	for i := range e.lanes {
		clear(e.lanes[i].buf)
		q.lanes[i] = e.lanes[i].buf
	}
	queuePool.Put(q)
	e.heap, e.lanes = nil, [numLanes]eventRing{}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule enqueues fn to run delay seconds from now. Negative delays are
// clamped to zero (the event fires after already-queued events at the
// current instant).
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt enqueues fn at absolute time t. Times in the past are clamped
// to the current time.
func (e *Engine) ScheduleAt(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := event{time: t, seq: e.seq, fn: fn}
	for i := range e.lanes {
		if l := &e.lanes[i]; l.n == 0 || t >= l.last().time {
			l.push(ev)
			return
		}
	}
	e.heap.push(ev)
}

// ScheduleEvery enqueues fn at absolute time start and then every stride
// seconds for as long as fn returns true. The periodic event is an
// ordinary queue entry: it interleaves deterministically with other events
// via the (time, seq) order, and — as long as fn does not touch the
// engine's random source — its presence cannot change what any other event
// computes, only when the clock happens to pause. Telemetry samplers rely
// on exactly that property.
func (e *Engine) ScheduleEvery(start, stride float64, fn func() bool) {
	if stride <= 0 {
		panic("sim: ScheduleEvery with non-positive stride")
	}
	var tick func()
	tick = func() {
		if fn() {
			e.Schedule(stride, tick)
		}
	}
	e.ScheduleAt(start, tick)
}

// Step executes the earliest pending event. It returns false when the queue
// is empty.
func (e *Engine) Step() bool {
	ev, src := e.next()
	if ev == nil {
		return false
	}
	e.fire(src)
	return true
}

// RunUntil executes events in order until the queue is empty or the next
// event is later than t, then advances the clock to t.
func (e *Engine) RunUntil(t float64) {
	for {
		ev, src := e.next()
		if ev == nil || ev.time > t {
			break
		}
		e.fire(src)
	}
	if e.now < t {
		e.now = t
	}
}

// next returns the earliest pending event, nil when nothing is pending,
// and where its queue is: a lane index, or -1 for the heap.
func (e *Engine) next() (ev *event, src int) {
	src = -1
	if len(e.heap) > 0 {
		ev = &e.heap[0]
	}
	for i := range e.lanes {
		if l := &e.lanes[i]; l.n > 0 {
			if h := &l.buf[l.head]; ev == nil || h.before(ev) {
				ev, src = h, i
			}
		}
	}
	return ev, src
}

// fire pops the head of lane src, or of the heap when src is -1, and
// runs it.
func (e *Engine) fire(src int) {
	var ev event
	if src >= 0 {
		ev = e.lanes[src].pop()
	} else {
		ev = e.heap.pop()
	}
	e.now = ev.time
	ev.fn()
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	n := len(e.heap)
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n
}

type event struct {
	time float64
	seq  uint64
	fn   func()
}

// before reports whether ev precedes o in (time, seq) order.
func (ev *event) before(o *event) bool {
	if ev.time != o.time {
		return ev.time < o.time
	}
	return ev.seq < o.seq
}

// eventRing is an in-order lane: a FIFO ring whose length is zero or a
// power of two, holding n events from buf[head] on. Popped slots are
// cleared, so the ring retains no closure it no longer queues. It grows
// only when full, doubling from 64, so its length is 64 or at most twice
// the most events it has held at once.
type eventRing struct {
	buf     []event
	head, n int
}

func (r *eventRing) last() *event {
	return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)]
}

func (r *eventRing) push(ev event) {
	if r.n == len(r.buf) {
		buf := make([]event, max(64, 2*len(r.buf)))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = ev
	r.n++
}

func (r *eventRing) pop() event {
	ev := r.buf[r.head]
	r.buf[r.head] = event{} // release the closure
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return ev
}

// eventHeap is a hand-rolled binary min-heap over (time, seq). The
// container/heap interface would box every pushed and popped event in an
// interface value — one allocation per event, on a path that fires once
// per sensor per period — so the sift operations are implemented
// directly. The (time, seq) order is a strict total order, hence the pop
// sequence is unique and independent of the heap's internal layout.
type eventHeap []event

func (h eventHeap) less(i, j int) bool { return h[i].before(&h[j]) }

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	// Sift up.
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	ev := s[0]
	s[0] = s[n]
	s[n] = event{} // release the closure
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && s.less(right, left) {
			min = right
		}
		if !s.less(min, i) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return ev
}
