// Package core provides the shared simulation substrate for all deployment
// schemes: the sensor/world model (§3.1), per-period motion with
// piecewise-linear position interpolation, message accounting (§6.5), the
// connectivity tree (§4.1–4.2, §5.3), the lazy-movement strategy (§3.3) and
// unit-disk connectivity checks.
package core

import (
	"fmt"
	"math"

	"mobisense/internal/geom"
)

// Sentinel parent values used by the connectivity tree.
const (
	// NoParent marks a sensor with no parent (disconnected or root of a
	// detached fragment).
	NoParent = -1
	// BaseParent marks a sensor whose parent is the base station itself.
	BaseParent = -2
)

// Params holds the simulation parameters of §3.1/§4.3. All distances are in
// meters and times in seconds.
type Params struct {
	// N is the number of sensors.
	N int
	// Rc is the communication range (isotropic unit disk).
	Rc float64
	// Rs is the sensing range (isotropic unit disk).
	Rs float64
	// Speed is the maximum moving speed V.
	Speed float64
	// Period is the step period T: a sensor moves in a straight line at
	// uniform speed for one period, then re-decides.
	Period float64
	// Duration is the simulated time horizon.
	Duration float64
	// Seed seeds all randomness of a run.
	Seed uint64
	// PhaseJitter, in [0,1), staggers the sensors' period boundaries by a
	// uniform fraction of the period, realizing the asynchronous system of
	// §4.2. Zero means all sensors decide simultaneously.
	PhaseJitter float64
	// InitRegion is the region in which sensors are initially placed
	// uniformly at random (the paper's clustered distribution uses the
	// [0,500]² sub-area).
	InitRegion geom.Rect
	// CoverageRes is the grid resolution for coverage measurement.
	CoverageRes float64
}

// DefaultParams returns the paper's standard settings (§4.3): 240 sensors
// clustered in [0,500]², V = 2 m/s, T = 1 s, 750 s horizon, rc = 60 m,
// rs = 40 m.
func DefaultParams() Params {
	return Params{
		N:           240,
		Rc:          60,
		Rs:          40,
		Speed:       2,
		Period:      1,
		Duration:    750,
		Seed:        1,
		PhaseJitter: 0.5,
		InitRegion:  geom.R(0, 0, 500, 500),
		CoverageRes: 5,
	}
}

// Validate reports whether the parameters are usable. Every real-valued
// parameter must be finite: NaN fails any ordered comparison, so each
// range test is written to pass only for values inside the range.
func (p Params) Validate() error {
	switch {
	case p.N <= 0:
		return fmt.Errorf("core: N = %d, must be positive", p.N)
	case !positive(p.Rc) || !positive(p.Rs):
		return fmt.Errorf("core: ranges rc=%v rs=%v must be positive and finite", p.Rc, p.Rs)
	case !positive(p.Speed):
		return fmt.Errorf("core: speed %v must be positive and finite", p.Speed)
	case !positive(p.Period):
		return fmt.Errorf("core: period %v must be positive and finite", p.Period)
	case !(p.Duration >= 0) || math.IsInf(p.Duration, 1):
		return fmt.Errorf("core: duration %v must be non-negative and finite", p.Duration)
	case !(p.PhaseJitter >= 0 && p.PhaseJitter < 1):
		return fmt.Errorf("core: phase jitter %v must be in [0,1)", p.PhaseJitter)
	case !positive(p.CoverageRes):
		return fmt.Errorf("core: coverage resolution %v must be positive and finite", p.CoverageRes)
	}
	return nil
}

// positive reports whether v is a positive finite number.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// MaxStep returns the maximum distance a sensor can travel in one period.
func (p Params) MaxStep() float64 { return p.Speed * p.Period }
