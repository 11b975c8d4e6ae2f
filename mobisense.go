// Package mobisense is a reproduction of "Connectivity-Guaranteed and
// Obstacle-Adaptive Deployment Schemes for Mobile Sensor Networks" (Tan,
// Jarvis, Kermarrec; ICDCS 2008 / IEEE TMC 2009) as a reusable Go library.
//
// It simulates the self-deployment of mobile sensor networks in 2-D fields
// with arbitrary rectangular/polygonal obstacles and provides:
//
//   - CPVF, the Connectivity-Preserved Virtual Force scheme (§4);
//   - FLOOR, the floor-based vine-growth scheme (§5);
//   - the VOR and Minimax Voronoi baselines of Wang et al. and the strip
//     pattern of Bai et al. for comparison (§6);
//   - coverage, moving-distance and message-overhead measurement matching
//     the paper's evaluation.
//
// Quick start:
//
//	cfg := mobisense.DefaultConfig(mobisense.SchemeFLOOR)
//	res, err := mobisense.Run(cfg)
//	if err != nil { ... }
//	fmt.Printf("coverage %.1f%%\n", 100*res.Coverage)
package mobisense

import (
	"fmt"
	"sync"
	"time"

	"mobisense/internal/core"
	ifield "mobisense/internal/field"
	"mobisense/internal/geom"
	"mobisense/internal/metrics"
	"mobisense/internal/render"
)

// Process-wide run telemetry, exported by the deployment service's
// /metrics endpoint. Handles are resolved once; per-run updates are
// single atomic ops, so instrumentation stays invisible to the bench
// gate's allocation counts.
var (
	runsStarted  = metrics.Default.Counter("runs_started_total")
	runsFinished = metrics.Default.Counter("runs_finished_total")
	runsFailed   = metrics.Default.Counter("runs_failed_total")
	// schemeDurations caches the per-scheme run-duration histogram handles
	// so the hot path never re-composes a series name.
	schemeDurations sync.Map // Scheme -> *metrics.Histogram

	// Convergence histograms, observed only for traced runs (untraced runs
	// derive no convergence metrics, so the hot path stays untouched). The
	// buckets are simulation seconds spanning quick small-field runs up to
	// the paper's 750 s horizon and stabilized extensions beyond it.
	convergenceBuckets = []float64{10, 25, 50, 100, 150, 200, 300, 400, 500, 750, 1000, 1500, 2000}
	settlingTimes      = metrics.Default.Histogram("run_settling_time_seconds", convergenceBuckets)
	t90Times           = metrics.Default.Histogram("run_time_to_90_coverage_seconds", convergenceBuckets)
	connectivityTimes  = metrics.Default.Histogram("run_time_to_connectivity_seconds", convergenceBuckets)
)

func runDuration(s Scheme) *metrics.Histogram {
	if h, ok := schemeDurations.Load(s); ok {
		return h.(*metrics.Histogram)
	}
	h := metrics.Default.Histogram(fmt.Sprintf("run_duration_seconds{scheme=%q}", s), nil)
	schemeDurations.Store(s, h)
	return h
}

// Run executes one deployment according to cfg and returns its metrics.
// The scheme is resolved through the scheme registry; see
// RegisteredSchemes for the available names.
func Run(cfg Config) (Result, error) {
	start := time.Now()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	runner, ok := lookupScheme(cfg.Scheme)
	if !ok {
		return Result{}, fmt.Errorf("mobisense: unknown scheme %q", cfg.Scheme)
	}
	runsStarted.Inc()
	res, err := runner(cfg, cfg.Field.internal())
	if err != nil {
		runsFailed.Inc()
		return Result{}, err
	}
	res.Elapsed = time.Since(start)
	runsFinished.Inc()
	runDuration(cfg.Scheme).Observe(res.Elapsed.Seconds())
	if res.Convergence = ConvergenceFrom(res.Trace); res.Convergence != nil {
		settlingTimes.Observe(res.Convergence.SettlingTime)
		t90Times.Observe(res.Convergence.TimeTo90Coverage)
		if res.Convergence.TimeToConnectivity >= 0 {
			connectivityTimes.Observe(res.Convergence.TimeToConnectivity)
		}
	}
	return res, nil
}

// resultFromWorld gathers metrics from an event-driven scheme run. All
// layout metrics consider the surviving sensors only. A traced run hands
// in its tracer so the final coverage figures are read from the already
// up-to-date incremental tracker instead of a fresh full scan
// (bit-identical: the tracker's integer counts are the full scan's).
func resultFromWorld(cfg Config, w *core.World, tr *tracer) Result {
	layout := w.AliveLayout()
	var cov, cov2 float64
	if tr != nil && tr.wt.seeded {
		tr.wt.sync(w)
		cov, cov2 = tr.wt.t.Fraction(), tr.wt.t.KFraction(2)
	} else {
		cov, cov2 = cfg.estimatorFor(w.F).FractionPair(layout, cfg.Rs)
	}
	res := resultWithCoverage(cfg, w.F, layout, w.AvgTraveled(), cov, cov2)
	res.Messages = w.Msg.Total()
	res.MessagesByKind = w.Msg.ByKind()
	res.ConvergenceTime = w.LastMoveTime()
	res.Alive = w.AliveCount()
	return res
}

// resultFromLayout computes the layout-dependent metrics shared by all
// schemes.
func resultFromLayout(cfg Config, f *ifield.Field, layout []geom.Vec, avgDist float64) Result {
	cov, cov2 := cfg.estimatorFor(f).FractionPair(layout, cfg.Rs)
	return resultWithCoverage(cfg, f, layout, avgDist, cov, cov2)
}

func resultWithCoverage(cfg Config, f *ifield.Field, layout []geom.Vec, avgDist, cov, cov2 float64) Result {
	positions := toPoints(layout)
	return Result{
		Scheme:          cfg.Scheme,
		Coverage:        cov,
		Coverage2:       cov2,
		AvgMoveDistance: avgDist,
		Connected:       core.AllConnected(layout, f.Reference(), cfg.Rc),
		Positions:       positions,
		Alive:           len(positions),
		fieldRef:        f,
	}
}

// ASCIIMap renders the result's final layout as a text map with the given
// number of character columns (legend: '.' free, '#' obstacle, 'B' base
// station, digits sensor counts).
func (r Result) ASCIIMap(cols int) string {
	if r.fieldRef == nil {
		return ""
	}
	layout := make([]geom.Vec, len(r.Positions))
	for i, p := range r.Positions {
		layout[i] = geom.V(p.X, p.Y)
	}
	return render.ASCIIMap(r.fieldRef, layout, cols)
}

// PositionsCSV renders the final sensor positions as CSV ("id,x,y").
func (r Result) PositionsCSV() string {
	layout := make([]geom.Vec, len(r.Positions))
	for i, p := range r.Positions {
		layout[i] = geom.V(p.X, p.Y)
	}
	return render.PositionsCSV(layout)
}
