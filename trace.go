package mobisense

import (
	"fmt"
	"math"

	"mobisense/internal/core"
	ifield "mobisense/internal/field"
	istore "mobisense/internal/store"
)

// TraceOptions turns on run-level telemetry for event-driven schemes
// (CPVF, FLOOR): the sim loop samples a TraceSample every Stride seconds
// and the series lands in Result.Trace. Sampling is an observer — it
// never touches the engine's random source — so a traced run produces
// bit-identical metrics to the same run untraced. The Voronoi and OPT
// baselines compute their layouts outside the event loop and yield no
// trace.
type TraceOptions struct {
	// Stride is the sampling interval in seconds (default: the decision
	// period).
	Stride float64
	// Layouts captures the full alive-sensor layout in every sample,
	// making a traced run replayable as a deployment animation (the
	// dashboard's replay view) at the cost of sample size. The capture is
	// a plain copy of state the sampler already reads, so it is exactly as
	// RNG-silent as the scalar telemetry.
	Layouts bool
	// LayoutStride thins layout capture to every LayoutStride-th trace
	// sample (0 or 1 = every sample). Scalar telemetry keeps the full
	// Stride resolution; only the expensive Layout snapshots are decimated,
	// so long replay-enabled sweeps don't pay full layout cost per tick.
	// Requires Layouts.
	LayoutStride int
}

// validate rejects strides that would silently break sampling: negative,
// NaN and infinite values all have no sensible sampling schedule. A nil
// receiver (tracing off) and zero (default to the period) are valid.
func (t *TraceOptions) validate() error {
	if t == nil {
		return nil
	}
	if math.IsNaN(t.Stride) || math.IsInf(t.Stride, 0) || t.Stride < 0 {
		return fmt.Errorf("mobisense: trace stride must be a finite value >= 0, got %g", t.Stride)
	}
	if t.LayoutStride < 0 {
		return fmt.Errorf("mobisense: trace layout stride must be >= 0, got %d", t.LayoutStride)
	}
	if t.LayoutStride > 1 && !t.Layouts {
		return fmt.Errorf("mobisense: trace layout stride requires Layouts; there are no layout samples to thin")
	}
	return nil
}

func (t *TraceOptions) stride(period float64) float64 {
	if t.Stride > 0 {
		return t.Stride
	}
	return period
}

// TraceSample is one per-tick telemetry observation of a running
// deployment; its stored form in internal/store documents the fields.
type TraceSample = istore.TraceSample

// Convergence summarizes how one traced run approached its final state;
// its stored form in internal/store documents the fields.
type Convergence = istore.Convergence

// ConvergenceFrom derives the convergence metrics of one trace series.
// It returns nil for an empty trace (untraced runs, baselines with no
// event loop), so Result.Convergence stays absent exactly when
// Result.Trace is.
func ConvergenceFrom(trace []TraceSample) *Convergence {
	if len(trace) == 0 {
		return nil
	}
	final := trace[len(trace)-1]
	c := &Convergence{
		TimeTo90Coverage:   final.Time,
		TimeTo99Coverage:   final.Time,
		TimeToConnectivity: -1,
		SettlingTime:       final.Time,
		TotalMovedAtSettle: final.TotalMoved,
		MaxMovedAtSettle:   final.MaxMoved,
	}
	// Coverage thresholds scan forward: the final sample trivially
	// satisfies both, so the loops always terminate with a valid time.
	for _, s := range trace {
		if s.Coverage >= 0.9*final.Coverage {
			c.TimeTo90Coverage = s.Time
			break
		}
	}
	for _, s := range trace {
		if s.Coverage >= 0.99*final.Coverage {
			c.TimeTo99Coverage = s.Time
			break
		}
	}
	// Connectivity and settling scan backward for the earliest suffix in
	// which the condition holds through the end — a transiently connected
	// (or transiently still) prefix must not count as converged.
	if final.Connected == final.Alive {
		for i := len(trace) - 1; i >= 0; i-- {
			if trace[i].Connected != trace[i].Alive {
				break
			}
			c.TimeToConnectivity = trace[i].Time
		}
	}
	for i := len(trace) - 1; i >= 0; i-- {
		s := trace[i]
		if s.Moving != 0 || s.TotalMoved != final.TotalMoved {
			break
		}
		c.SettlingTime = s.Time
	}
	return c
}

// tracer samples a world's telemetry on the engine clock. attach
// schedules it; the collected series is read from samples afterwards.
type tracer struct {
	cfg     Config
	f       *ifield.Field
	samples []TraceSample
	// wt is the incremental coverage tracker: seeded on the first sample,
	// then updated per sample in O(moved sensors × disk window) instead of
	// O(grid × N).
	wt *worldTracker
}

// attach schedules periodic sampling on the world's engine, from t=0 to
// the horizon. The sampler reads world state and computes coverage but
// never consumes engine randomness, keeping traced runs bit-identical to
// untraced ones.
func (tr *tracer) attach(w *core.World, horizon float64) {
	stride := tr.cfg.Trace.stride(w.P.Period)
	layouts := tr.cfg.Trace.Layouts
	layoutStride := tr.cfg.Trace.LayoutStride
	if layoutStride < 1 {
		layoutStride = 1
	}
	tr.wt = newWorldTracker(tr.cfg.estimatorFor(tr.f), tr.cfg.Rs, len(w.Sensors))
	var cs core.TraceSample
	w.E.ScheduleEvery(0, stride, func() bool {
		layout := w.SampleTrace(&cs)
		tr.wt.sync(w)
		sample := TraceSample{
			Time:       cs.Time,
			Coverage:   tr.wt.t.Fraction(),
			Connected:  cs.Connected,
			Alive:      cs.Alive,
			Moving:     cs.Moving,
			TotalMoved: cs.TotalMoved,
			MaxMoved:   cs.MaxMoved,
		}
		if layouts && len(tr.samples)%layoutStride == 0 {
			// The world's scratch layout is only valid until the next
			// sample; the persisted copy is the sampler's own.
			sample.Layout = toPoints(layout)
		}
		tr.samples = append(tr.samples, sample)
		// Keep rescheduling while more simulated time remains; the engine
		// drops whatever is still queued past the final RunUntil.
		return cs.Time < horizon
	})
}
