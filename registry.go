package mobisense

import (
	"fmt"
	"sort"
	"sync"

	"mobisense/internal/baseline"
	"mobisense/internal/core"
	"mobisense/internal/cpvf"
	ifield "mobisense/internal/field"
	"mobisense/internal/floor"
	"mobisense/internal/geom"
	"mobisense/internal/matching"
)

// schemeRunner executes one deployment of a registered scheme on a
// validated config. The field is the unwrapped cfg.Field.
type schemeRunner func(cfg Config, f *ifield.Field) (Result, error)

var (
	schemeMu      sync.RWMutex
	schemeRunners = map[Scheme]schemeRunner{}
)

// registerScheme adds a scheme to the registry. Run and Config.validate
// resolve schemes exclusively through it, so a new scheme plugs in with a
// single registration and no changes to the run path.
func registerScheme(s Scheme, r schemeRunner) {
	if s == "" || r == nil {
		panic("mobisense: registerScheme with empty name or nil runner")
	}
	schemeMu.Lock()
	defer schemeMu.Unlock()
	if _, dup := schemeRunners[s]; dup {
		panic(fmt.Sprintf("mobisense: scheme %q registered twice", s))
	}
	schemeRunners[s] = r
}

func lookupScheme(s Scheme) (schemeRunner, bool) {
	schemeMu.RLock()
	defer schemeMu.RUnlock()
	r, ok := schemeRunners[s]
	return r, ok
}

// RegisteredSchemes returns the names of all available deployment schemes
// in sorted order.
func RegisteredSchemes() []Scheme {
	schemeMu.RLock()
	defer schemeMu.RUnlock()
	out := make([]Scheme, 0, len(schemeRunners))
	for s := range schemeRunners {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func init() {
	registerScheme(SchemeCPVF, func(cfg Config, f *ifield.Field) (Result, error) {
		s := cpvf.New(cfg.cpvfConfig())
		return runEventScheme(cfg, f, s, s.HandleFailure)
	})
	registerScheme(SchemeFLOOR, func(cfg Config, f *ifield.Field) (Result, error) {
		s := floor.New(cfg.floorConfig())
		return runEventScheme(cfg, f, s, s.HandleFailure)
	})
	registerScheme(SchemeVOR, func(cfg Config, f *ifield.Field) (Result, error) {
		return runVDScheme(cfg, f, baseline.RunVOR)
	})
	registerScheme(SchemeMinimax, func(cfg Config, f *ifield.Field) (Result, error) {
		return runVDScheme(cfg, f, baseline.RunMinimax)
	})
	registerScheme(SchemeOPT, runOPTScheme)
}

// runEventScheme drives an event-driven scheme (CPVF, FLOOR) through the
// simulation engine, with optional failure injection and §6-style
// stabilization (keep simulating past the horizon until a whole chunk
// passes without movement).
func runEventScheme(cfg Config, f *ifield.Field, scheme core.Scheme, onKill func(int, []int)) (Result, error) {
	params := cfg.params()
	minHorizon := params.Duration
	var stabCap, stabChunk float64
	if st := cfg.Stabilize; st != nil && st.Cap > minHorizon {
		// Schemes schedule their per-period events only up to
		// params.Duration, so the horizon is raised to the cap up front and
		// the run cut short once a whole chunk passes without movement.
		stabCap = st.Cap
		stabChunk = st.Chunk
		if stabChunk <= 0 {
			stabChunk = 250
		}
		params.Duration = stabCap
	}

	w, err := core.NewWorld(f, params)
	if err != nil {
		return Result{}, fmt.Errorf("mobisense: %w", err)
	}
	starts := w.Layout()
	scheme.Attach(w)
	if fo := cfg.Failures; fo != nil {
		inj := &core.FailureInjector{
			Interval: fo.Interval,
			MaxKills: fo.MaxKills,
			OnKill:   onKill,
		}
		inj.Attach(w)
	}
	var tr *tracer
	if cfg.Trace != nil {
		tr = &tracer{cfg: cfg, f: f}
		tr.attach(w, params.Duration)
	}
	w.E.RunUntil(minHorizon)
	for stabCap > 0 && w.Now() < stabCap && w.LastMoveTime() > w.Now()-stabChunk {
		w.E.RunUntil(w.Now() + stabChunk)
	}

	res := resultFromWorld(cfg, w, tr)
	res.InitialPositions = toPoints(starts)
	if tr != nil {
		res.Trace = tr.samples
		tr.wt.release()
	}
	if fs, ok := scheme.(*floor.Scheme); ok {
		res.Placements = fs.PlacementsByKind()
	}
	// Everything result-bearing has been copied out of the world; recycle
	// its event heap and spatial index for the next run of the batch.
	w.Release()
	return res, nil
}

// runVDScheme drives one of the Voronoi-diagram baselines (VOR, Minimax).
func runVDScheme(cfg Config, f *ifield.Field, run func(*ifield.Field, []geom.Vec, baseline.VDConfig) (baseline.VDResult, error)) (Result, error) {
	w, err := core.NewWorld(f, cfg.params())
	if err != nil {
		return Result{}, fmt.Errorf("mobisense: %w", err)
	}
	starts := w.Layout()
	vd, err := run(f, starts, cfg.vdConfig())
	if err != nil {
		return Result{}, fmt.Errorf("mobisense: %w", err)
	}
	res := resultFromLayout(cfg, f, vd.Positions, vd.AvgDistance())
	res.IncorrectVoronoiCells = vd.IncorrectCells
	res.InitialPositions = toPoints(starts)
	w.Release()
	return res, nil
}

// runOPTScheme places the centralized strip pattern directly; its moving
// distance is the Hungarian lower bound from the initial layout. When the
// field saturates before all sensors are used (the pattern needs fewer
// than N positions), the surplus sensors stay parked at their starts.
func runOPTScheme(cfg Config, f *ifield.Field) (Result, error) {
	params := cfg.params()
	w, err := core.NewWorld(f, params)
	if err != nil {
		return Result{}, fmt.Errorf("mobisense: %w", err)
	}
	starts := w.Layout()
	pattern := baseline.StripPattern(f.Bounds(), params.N, params.Rc, params.Rs)

	var layout []geom.Vec
	var sum float64
	if len(pattern) >= len(starts) {
		dists, err := baseline.MinMatchingDistance(starts, pattern)
		if err != nil {
			return Result{}, fmt.Errorf("mobisense: %w", err)
		}
		for _, d := range dists {
			sum += d
		}
		layout = pattern
	} else {
		src := make([]matching.Point, len(pattern))
		for i, p := range pattern {
			src[i] = matching.Point{X: p.X, Y: p.Y}
		}
		dst := make([]matching.Point, len(starts))
		for i, p := range starts {
			dst[i] = matching.Point{X: p.X, Y: p.Y}
		}
		assign, total, err := matching.SolvePoints(src, dst)
		if err != nil {
			return Result{}, fmt.Errorf("mobisense: %w", err)
		}
		sum = total
		layout = append([]geom.Vec(nil), starts...)
		for slot, sensor := range assign {
			layout[sensor] = pattern[slot]
		}
	}
	res := resultFromLayout(cfg, f, layout, sum/float64(len(starts)))
	res.InitialPositions = toPoints(starts)
	w.Release()
	return res, nil
}

func toPoints(layout []geom.Vec) []Point {
	out := make([]Point, len(layout))
	for i, p := range layout {
		out[i] = Point{X: p.X, Y: p.Y}
	}
	return out
}
