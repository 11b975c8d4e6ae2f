package sim

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.RunUntil(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Errorf("now = %v, want 10", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.RunUntil(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine(1)
	fired := make(map[float64]bool)
	e.Schedule(1, func() { fired[1] = true })
	e.Schedule(5, func() { fired[5] = true })
	e.Schedule(9, func() { fired[9] = true })
	e.RunUntil(5)
	if !fired[1] || !fired[5] || fired[9] {
		t.Errorf("fired = %v", fired)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d", e.Pending())
	}
	e.RunUntil(20)
	if !fired[9] {
		t.Error("event at 9 never fired")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	var times []float64
	var recur func()
	recur = func() {
		times = append(times, e.Now())
		if e.Now() < 4 {
			e.Schedule(1, recur)
		}
	}
	e.Schedule(1, recur)
	e.RunUntil(10)
	want := []float64{1, 2, 3, 4}
	if len(times) != len(want) {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times[%d] = %v, want %v", i, times[i], want[i])
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(2, func() {
		e.Schedule(-5, func() { ran = true })
	})
	e.RunUntil(2)
	if !ran {
		t.Error("negative-delay event should run at current time")
	}
	if e.Now() != 2 {
		t.Errorf("now = %v", e.Now())
	}
}

func TestStepEmptyQueue(t *testing.T) {
	e := NewEngine(1)
	if e.Step() {
		t.Error("Step on empty queue should return false")
	}
}

func TestDeterministicRand(t *testing.T) {
	a := NewEngine(42)
	b := NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Float64() != b.Rand().Float64() {
			t.Fatal("same seed should give identical streams")
		}
	}
	c := NewEngine(43)
	same := true
	for i := 0; i < 10; i++ {
		if a.Rand().Float64() != c.Rand().Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical streams")
	}
}

// heapEngine is the heap-only event queue the engine used before its
// in-order lane: every event goes through one binary heap over
// (time, seq). It is the oracle for the engine's pop order.
type heapEngine struct {
	now    float64
	seq    uint64
	events eventHeap
}

func (e *heapEngine) Now() float64 { return e.now }

func (e *heapEngine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

func (e *heapEngine) ScheduleAt(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(event{time: t, seq: e.seq, fn: fn})
}

func (e *heapEngine) ScheduleEvery(start, stride float64, fn func() bool) {
	var tick func()
	tick = func() {
		if fn() {
			e.Schedule(stride, tick)
		}
	}
	e.ScheduleAt(start, tick)
}

func (e *heapEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.time
	ev.fn()
	return true
}

func (e *heapEngine) RunUntil(t float64) {
	for len(e.events) > 0 && e.events[0].time <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

func (e *heapEngine) Pending() int { return len(e.events) }

// scheduler is the queue API a random program drives.
type scheduler interface {
	Now() float64
	Schedule(delay float64, fn func())
	ScheduleAt(t float64, fn func())
	ScheduleEvery(start, stride float64, fn func() bool)
	Step() bool
	RunUntil(t float64)
	Pending() int
}

// runProgram drives q with a random program drawn from seed and returns
// its observations: each fired event's label and time, and after every
// Step or RunUntil call the clock and the pending count. Times sit on a
// 0.25 s lattice, so same-instant ties are common. Actors reschedule
// themselves one period on, most of them with the program's common
// period, and more actors join as the program runs. Handlers also push
// into the past (clamped) and schedule zero-delay children. Half the
// programs are noisy: their handlers also fire same-instant bursts and
// push at arbitrary future times, and periodic tickers run through
// ScheduleEvery; the quiet half keeps the in-order lane long, so it
// grows while it wraps. Its main loop alternates Step with RunUntil
// boundaries that fall on and between event times. Handlers draw from
// the program's own source, so two queues that pop in the same order
// see the same program.
func runProgram(q scheduler, seed uint64, horizon float64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 16))
	var obs []float64
	label, actors := 0, 0
	common := 0.25 * float64(1+rng.IntN(8))
	noisy := rng.IntN(2) == 0
	var startActor func(at float64)
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		label++
		id := float64(label)
		return func() {
			obs = append(obs, id, q.Now())
			if depth > 2 {
				return
			}
			switch k := rng.IntN(12); {
			case k == 0:
				q.Schedule(0, spawn(depth+1))
			case k == 1:
				q.ScheduleAt(q.Now()-rng.Float64()*3, spawn(depth+1))
			case k == 2 && noisy:
				t := q.Now() + 0.25*float64(rng.IntN(8))
				for range 1 + rng.IntN(4) {
					q.ScheduleAt(t, spawn(depth+1))
				}
			case k == 3 && noisy:
				q.Schedule(rng.Float64()*5, spawn(depth+1))
			case k <= 5 && actors < 300:
				startActor(q.Now() + 0.25*float64(rng.IntN(8)))
			}
		}
	}
	startActor = func(at float64) {
		actors++
		a := -float64(actors)
		period := common
		if rng.IntN(4) == 0 {
			period = 0.25 * float64(1+rng.IntN(8))
		}
		var act func()
		act = func() {
			obs = append(obs, a, q.Now())
			if q.Now() < horizon {
				q.Schedule(period, act)
			}
			spawn(0)()
		}
		q.ScheduleAt(at, act)
	}
	for range 12 + rng.IntN(30) {
		startActor(0.25 * float64(rng.IntN(16)))
	}
	for i := 0; noisy && i < 2; i++ {
		left := 5 + rng.IntN(20)
		q.ScheduleEvery(0.25*float64(rng.IntN(8)), 0.25*float64(1+rng.IntN(6)), func() bool {
			obs = append(obs, 1e9, q.Now())
			left--
			return left > 0
		})
	}
	for q.Pending() > 0 && q.Now() < horizon+10 {
		if rng.IntN(3) == 0 {
			q.Step()
		} else {
			d := rng.Float64() * 2
			if rng.IntN(2) == 0 {
				d = 0.25 * float64(rng.IntN(8))
			}
			q.RunUntil(q.Now() + d)
		}
		obs = append(obs, q.Now(), float64(q.Pending()))
	}
	return obs
}

// startTicked schedules a traced run's event shape on q: period-1 actors
// at jittered phases, each rescheduling itself one period on, beside
// ScheduleEvery tickers whose strides are far longer than the period —
// the trace sampler's stride 10, the failure injector's 20. Shape 0 runs
// one stride-10 ticker from time 0, shape 1 adds a stride-20 ticker,
// and shape 2 starts a stride-10 ticker from inside a handler a third
// of the way through. With noise set, handlers also schedule zero-delay
// children and clamped pushes into the past. Fired events append their
// label and time to obs.
func startTicked(q scheduler, rng *rand.Rand, obs *[]float64, horizon float64, shape int, noise bool) {
	ticker := func(label float64, start, stride float64) {
		q.ScheduleEvery(start, stride, func() bool {
			*obs = append(*obs, label, q.Now())
			return q.Now() < horizon
		})
	}
	midRun := shape == 2
	for a := range 20 + rng.IntN(60) {
		label := -float64(a + 1)
		var act func()
		act = func() {
			*obs = append(*obs, label, q.Now())
			if q.Now() < horizon {
				q.Schedule(1, act)
			}
			if midRun && q.Now() >= horizon/3 {
				midRun = false
				ticker(1e9+2, q.Now()+rng.Float64()*10, 10)
			}
			if noise && rng.IntN(30) == 0 {
				child := func() { *obs = append(*obs, label-0.5, q.Now()) }
				if rng.IntN(2) == 0 {
					q.Schedule(0, child)
				} else {
					q.ScheduleAt(q.Now()-rng.Float64(), child)
				}
			}
		}
		q.ScheduleAt(rng.Float64()*0.5, act)
	}
	switch shape {
	case 0:
		ticker(1e9, 0, 10)
	case 1:
		ticker(1e9, 0, 10)
		ticker(1e9+1, 20, 20)
	case 2:
		ticker(1e9+1, 0, 20)
	}
}

// runTickedProgram runs startTicked's shape to its end on q, alternating
// Step with RunUntil boundaries on and between event times, and returns
// the observations: each fired event's label and time, and after every
// call the clock and the pending count.
func runTickedProgram(q scheduler, seed uint64, horizon float64, shape int) []float64 {
	rng := rand.New(rand.NewPCG(seed, 17))
	var obs []float64
	startTicked(q, rng, &obs, horizon, shape, true)
	for q.Pending() > 0 {
		if rng.IntN(3) == 0 {
			q.Step()
		} else {
			d := rng.Float64() * 4
			if rng.IntN(2) == 0 {
				d = float64(rng.IntN(12))
			}
			q.RunUntil(q.Now() + d)
		}
		obs = append(obs, q.Now(), float64(q.Pending()))
	}
	return obs
}

// TestEngineMatchesReferenceOrder: the engine with its in-order lanes
// fires the same events at the same times as the heap-only queue, with
// the same clock and pending count after every Step and RunUntil, over
// seeded random programs and over traced-run programs whose tickers step
// 10 or 20 periods ahead. Each program runs on an engine built from the
// pool after the previous one was released mid-run with events still
// queued. On the trace sampler's shape at most 2% of the events pass
// through the heap.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	check := func(name string, seed uint64, got, want []float64) {
		t.Helper()
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s seed %d: observations diverge at %d of %d/%d: lanes+heap %v, heap-only %v",
				name, seed, i, len(got), len(want), got[i:min(i+8, len(got))], want[i:min(i+8, len(want))])
		}
	}
	release := func(e *Engine) {
		// Leave events queued in the pooled arrays for the next engine.
		e.Schedule(1, func() {})
		e.ScheduleAt(0, func() {})
		e.Release()
	}
	fired, ring := 0, 0
	for seed := uint64(1); seed <= 60; seed++ {
		horizon := float64(5 + seed%20)
		want := runProgram(&heapEngine{}, seed, horizon)
		e := NewEngine(seed)
		got := runProgram(e, seed, horizon)
		check("random program", seed, got, want)
		fired += len(got)
		for i := range e.lanes {
			ring = max(ring, len(e.lanes[i].buf))
		}
		release(e)
	}
	if fired < 20000 {
		t.Fatalf("programs recorded %d observations, want >= 20000", fired)
	}
	if ring < 256 {
		t.Fatalf("the lanes grew to %d slots; the programs must grow one past 128", ring)
	}
	ticks := 0
	for seed := uint64(1); seed <= 18; seed++ {
		horizon := float64(60 + 10*(seed%5))
		shape := int(seed % 3)
		want := runTickedProgram(&heapEngine{}, seed, horizon, shape)
		e := NewEngine(seed)
		got := runTickedProgram(e, seed, horizon, shape)
		check("ticked program", seed, got, want)
		for i := 0; i < len(got); i++ {
			if got[i] >= 1e9 {
				ticks++
			}
		}
		release(e)
	}
	if ticks < 100 {
		t.Fatalf("ticked programs fired %d ticks, want >= 100", ticks)
	}

	// The trace sampler's shape, driven one event at a time: count the
	// events that pop from the heap.
	e := NewEngine(1)
	var obs []float64
	startTicked(e, rand.New(rand.NewPCG(1, 17)), &obs, 200, 0, false)
	pops, heapPops := 0, 0
	for {
		ev, src := e.next()
		if ev == nil {
			break
		}
		pops++
		if src < 0 {
			heapPops++
		}
		e.Step()
	}
	if pops < 4000 || float64(heapPops) > 0.02*float64(pops) {
		t.Errorf("trace-sampler program: %d of %d events went through the heap, want <= 2%%", heapPops, pops)
	}
	e.Release()
}

// BenchmarkEngineStep measures the event queue under a deployment run's
// traffic: 480 handlers at jittered phases, each rescheduling itself one
// period on, plus one zero-delay event per period scheduled from inside
// a handler. Each op runs 100 periods on a warm engine.
func BenchmarkEngineStep(b *testing.B) {
	const n, period = 480, 1.0
	e := NewEngine(1)
	rng := rand.New(rand.NewPCG(16, n))
	noop := func() {}
	fns := make([]func(), n)
	for i := range fns {
		fns[i] = func() {
			e.Schedule(period, fns[i])
			if i == 0 {
				e.Schedule(0, noop)
			}
		}
		e.ScheduleAt(rng.Float64()*period, fns[i])
	}
	e.RunUntil(2 * period)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 100*period)
	}
}

// BenchmarkEngineStepTicked is BenchmarkEngineStep's program plus one
// ticker stepping 10 periods at a time, the trace sampler's shape, which
// sits at one lane's tail while the period reschedules queue behind it.
func BenchmarkEngineStepTicked(b *testing.B) {
	const n, period = 480, 1.0
	e := NewEngine(1)
	rng := rand.New(rand.NewPCG(16, n))
	noop := func() {}
	fns := make([]func(), n)
	for i := range fns {
		fns[i] = func() {
			e.Schedule(period, fns[i])
			if i == 0 {
				e.Schedule(0, noop)
			}
		}
		e.ScheduleAt(rng.Float64()*period, fns[i])
	}
	e.ScheduleEvery(0, 10*period, func() bool { return true })
	e.RunUntil(20 * period)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 100*period)
	}
}
