package mobisense

import (
	"fmt"
	"math"

	"mobisense/internal/baseline"
	"mobisense/internal/core"
	"mobisense/internal/coverage"
	"mobisense/internal/cpvf"
	"mobisense/internal/field"
	"mobisense/internal/floor"
	"mobisense/internal/geom"
	istore "mobisense/internal/store"
)

// Scheme identifies a deployment scheme.
type Scheme string

// Available schemes.
const (
	// SchemeCPVF is the Connectivity-Preserved Virtual Force scheme (§4).
	SchemeCPVF Scheme = "cpvf"
	// SchemeFLOOR is the floor-based scheme (§5).
	SchemeFLOOR Scheme = "floor"
	// SchemeVOR is the Voronoi baseline of Wang et al. (§6.1,
	// connectivity-ignorant, obstacle-free fields only).
	SchemeVOR Scheme = "vor"
	// SchemeMinimax is the Minimax Voronoi baseline (§6.1).
	SchemeMinimax Scheme = "minimax"
	// SchemeOPT places the strip-based optimal pattern of Bai et al. [1]
	// directly; its moving distance is the Hungarian lower bound from the
	// initial layout (§6.2).
	SchemeOPT Scheme = "opt"
)

// Point is a 2-D point in meters, the same type store records hold.
type Point = istore.Point

// Config describes one deployment run. The zero value is not runnable; use
// DefaultConfig and adjust.
type Config struct {
	// Scheme selects the deployment algorithm.
	Scheme Scheme
	// Field is the deployment area (defaults to the paper's 1000×1000 m
	// obstacle-free field).
	Field Field
	// N is the number of sensors.
	N int
	// Rc and Rs are the communication and sensing ranges in meters.
	Rc, Rs float64
	// Speed is the maximum moving speed V in m/s.
	Speed float64
	// Period is the decision period T in seconds.
	Period float64
	// Duration is the simulated horizon in seconds.
	Duration float64
	// Seed makes runs reproducible.
	Seed uint64
	// ClusterInit places sensors initially in the [0, W/2]×[0, H/2]
	// sub-area (the paper's clustered distribution); otherwise they start
	// uniformly across the field.
	ClusterInit bool
	// CoverageRes is the coverage-grid resolution in meters (default 5).
	CoverageRes float64

	// Stabilize, when set, keeps extending an event-driven run past
	// Duration until the layout stops changing (the paper's "after which
	// the sensor layout becomes quite stable").
	Stabilize *StabilizeOptions

	// Failures optionally injects sensor deaths during the run; CPVF and
	// FLOOR repair around them (the §7 failure-recovery extension).
	Failures *FailureOptions

	// Trace optionally samples per-tick telemetry (coverage, connectivity,
	// movement) during event-driven runs into Result.Trace. Sampling never
	// consumes engine randomness, so a traced run's metrics are
	// bit-identical to the same run untraced.
	Trace *TraceOptions

	// estimators is an optional cache of coverage estimators shared across
	// the runs of a run pool (set by runSpecs).
	estimators *estimatorCache
	// specErr records a deferred field-construction failure (an axis
	// setter rebuilding the field around an invalid spec); validate
	// surfaces it so only that run fails, with the cause.
	specErr error
	// fieldSeed is the environment-derivation seed Sweep.Expand assigned
	// to this run's (scenario, repeat) slot — independent of the scheme,
	// N and non-field axes, so field-rebuilding axis setters regenerate
	// the same environment for every run of one comparison point. Zero
	// (plain RunBatch configs) falls back to Seed.
	fieldSeed uint64
	// CPVF optionally tunes the CPVF scheme.
	CPVF *CPVFOptions
	// Floor optionally tunes the FLOOR scheme.
	Floor *FloorOptions
	// VD optionally tunes the VOR/Minimax baselines.
	VD *VDOptions
}

// StabilizeOptions extend an event-driven run past Config.Duration until
// no sensor moved during a whole chunk, or the cap is reached.
type StabilizeOptions struct {
	// Cap is the hard horizon in seconds; values at or below
	// Config.Duration disable stabilization.
	Cap float64
	// Chunk is the quiet-period length in seconds (default 250).
	Chunk float64
}

// FailureOptions injects sensor failures during event-driven runs.
type FailureOptions struct {
	// Interval is the time between kills in seconds (default 50).
	Interval float64
	// MaxKills bounds the number of failures (0 = keep killing until the
	// horizon).
	MaxKills int
}

// CPVFOptions tunes SchemeCPVF.
type CPVFOptions struct {
	// Oscillation selects §6.3 oscillation avoidance: "none", "one-step"
	// or "two-step".
	Oscillation string
	// Delta is the oscillation-avoidance factor δ.
	Delta float64
	// DisallowParentChange turns off the §4.2 parent-change protocol
	// (ablation).
	DisallowParentChange bool
	// ForceGain scales the virtual force before step saturation.
	ForceGain float64
	// DisableLazy turns off the lazy-movement strategy (§3.3 ablation).
	DisableLazy bool
}

// FloorOptions tunes SchemeFLOOR.
type FloorOptions struct {
	// TTL is the invitation random-walk TTL in hops (0 → 0.2·N).
	TTL int
	// ExclusiveFrac is the §5.3 movability threshold as a fraction of the
	// sensing disk area.
	ExclusiveFrac float64
	// DirectConnectWalk replaces Algorithm 1's three-leg connect route
	// with a straight BUG2 walk (ablation).
	DirectConnectWalk bool
	// DisablePriority makes movables ignore the FLG > BLG > IFLG
	// invitation priority (ablation).
	DisablePriority bool
}

// VDOptions tunes SchemeVOR / SchemeMinimax.
type VDOptions struct {
	// Rounds of Voronoi adjustment after the explosion (default 10).
	Rounds int
	// NoExplosion skips the §6.2 explosion stage.
	NoExplosion bool
	// PerfectKnowledge gives the schemes exact Voronoi cells instead of
	// rc-limited local ones.
	PerfectKnowledge bool
}

// DefaultConfig returns the paper's standard settings (§4.3): 240 sensors
// clustered in [0,500]², rc = 60 m, rs = 40 m, V = 2 m/s, T = 1 s, 750 s.
func DefaultConfig(scheme Scheme) Config {
	return Config{
		Scheme:      scheme,
		Field:       ObstacleFreeField(),
		N:           240,
		Rc:          60,
		Rs:          40,
		Speed:       2,
		Period:      1,
		Duration:    750,
		Seed:        1,
		ClusterInit: true,
		CoverageRes: 5,
	}
}

func (c Config) validate() error {
	if c.specErr != nil {
		return c.specErr
	}
	if _, ok := lookupScheme(c.Scheme); !ok {
		return fmt.Errorf("mobisense: unknown scheme %q", c.Scheme)
	}
	if c.Field.f == nil {
		return fmt.Errorf("mobisense: config has no field; use DefaultConfig or set Field")
	}
	if err := c.Trace.validate(); err != nil {
		return err
	}
	// Non-positive resolutions select the default; only the rest of the
	// range is checked by Params.Validate.
	if math.IsInf(c.CoverageRes, -1) {
		return fmt.Errorf("mobisense: coverage resolution %v must be finite", c.CoverageRes)
	}
	if c.CPVF != nil {
		if _, ok := oscillationModes[c.CPVF.Oscillation]; !ok {
			return fmt.Errorf("mobisense: unknown CPVF oscillation mode %q (want none, one-step or two-step)", c.CPVF.Oscillation)
		}
	}
	return c.params().Validate()
}

// oscillationModes maps the CPVFOptions.Oscillation names (§6.3) to the
// scheme's modes; the empty string means none.
var oscillationModes = map[string]cpvf.OscMode{
	"":         cpvf.OscNone,
	"none":     cpvf.OscNone,
	"one-step": cpvf.OscOneStep,
	"two-step": cpvf.OscTwoStep,
}

// estimatorFor returns the coverage estimator for this config's field,
// reusing the run pool's cache when one is attached.
func (c Config) estimatorFor(f *field.Field) *coverage.Estimator {
	if c.estimators != nil {
		return c.estimators.get(f, c.coverageRes())
	}
	return coverage.NewEstimator(f, c.coverageRes())
}

func (c Config) coverageRes() float64 {
	if c.CoverageRes <= 0 {
		return 5
	}
	return c.CoverageRes
}

// params converts the public configuration into the internal one.
func (c Config) params() core.Params {
	b := c.Field.f.Bounds()
	init := b
	if c.ClusterInit {
		init = geom.R(b.Min.X, b.Min.Y, b.Min.X+b.W()/2, b.Min.Y+b.H()/2)
	}
	return core.Params{
		N:           c.N,
		Rc:          c.Rc,
		Rs:          c.Rs,
		Speed:       c.Speed,
		Period:      c.Period,
		Duration:    c.Duration,
		Seed:        c.Seed,
		PhaseJitter: 0.5,
		InitRegion:  init,
		CoverageRes: c.coverageRes(),
	}
}

func (c Config) cpvfConfig() cpvf.Config {
	cfg := cpvf.DefaultConfig()
	if o := c.CPVF; o != nil {
		cfg.Oscillation = oscillationModes[o.Oscillation]
		if o.Delta > 0 {
			cfg.Delta = o.Delta
		}
		if o.ForceGain > 0 {
			cfg.ForceGain = o.ForceGain
		}
		cfg.AllowParentChange = !o.DisallowParentChange
		cfg.DisableLazy = o.DisableLazy
	}
	return cfg
}

func (c Config) floorConfig() floor.Config {
	cfg := floor.DefaultConfig()
	if o := c.Floor; o != nil {
		if o.TTL > 0 {
			cfg.TTL = o.TTL
		}
		if o.ExclusiveFrac > 0 {
			cfg.ExclusiveFrac = o.ExclusiveFrac
		}
		cfg.DirectConnectWalk = o.DirectConnectWalk
		cfg.DisablePriority = o.DisablePriority
	}
	return cfg
}

func (c Config) vdConfig() baseline.VDConfig {
	cfg := baseline.DefaultVDConfig(c.Rc, c.Rs)
	cfg.Seed = c.Seed
	if o := c.VD; o != nil {
		if o.Rounds > 0 {
			cfg.Rounds = o.Rounds
		}
		cfg.Explode = !o.NoExplosion
		cfg.LocalKnowledge = !o.PerfectKnowledge
	}
	return cfg
}
