// Package calib holds the paper-scale integration tests: full 240-sensor
// runs on the 1000×1000 m field checking the qualitative relationships
// the paper's evaluation reports. These are the slowest tests in the
// module (a few seconds in total); `go test -short` skips them.
package calib

import (
	"testing"
	"time"

	"mobisense"
	"mobisense/internal/core"
	"mobisense/internal/coverage"
	"mobisense/internal/cpvf"
	"mobisense/internal/field"
	"mobisense/internal/floor"
)

type outcome struct {
	cov       float64
	dist      float64
	connected bool
	msgs      int64
}

func run(t *testing.T, name string, f *field.Field, p core.Params, s core.Scheme) outcome {
	t.Helper()
	start := time.Now()
	w, err := core.NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	s.Attach(w)
	w.E.RunUntil(p.Duration)
	est := coverage.NewEstimator(f, 5)
	o := outcome{
		cov:       est.Fraction(w.Layout(), p.Rs),
		dist:      w.AvgTraveled(),
		connected: core.AllConnected(w.Layout(), w.F.Reference(), p.Rc),
		msgs:      w.Msg.Total(),
	}
	t.Logf("%-16s cov=%.3f dist=%.1f conn=%v msgs=%dk wall=%v",
		name, o.cov, o.dist, o.connected, o.msgs/1000, time.Since(start).Round(time.Millisecond))
	return o
}

// TestPaperScaleQualitativeClaims runs the canonical scenarios of Figures
// 3 and 8 at full paper scale and asserts the relationships the paper
// reports (the per-scenario numeric record is in EXPERIMENTS.md).
func TestPaperScaleQualitativeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale integration test")
	}
	p := core.DefaultParams()
	p30 := p
	p30.Rc = 30

	free := field.MustNew(field.StandardBounds(), nil)
	sc, _ := mobisense.LookupScenario("two-obstacles")
	twoObs, err := sc.Spec.Build(0)
	if err != nil {
		t.Fatal(err)
	}

	cpvf60 := run(t, "CPVF rc60", free, p, cpvf.New(cpvf.DefaultConfig()))
	floor60 := run(t, "FLOOR rc60", free, p, floor.New(floor.DefaultConfig()))
	cpvf30 := run(t, "CPVF rc30", free, p30, cpvf.New(cpvf.DefaultConfig()))
	floor30 := run(t, "FLOOR rc30", free, p30, floor.New(floor.DefaultConfig()))
	cpvfObs := run(t, "CPVF two-obs", twoObs, p, cpvf.New(cpvf.DefaultConfig()))
	floorObs := run(t, "FLOOR two-obs", twoObs, p, floor.New(floor.DefaultConfig()))

	// Fig 3: small rc collapses CPVF's coverage; obstacles hurt it badly.
	if cpvf30.cov > 0.6*cpvf60.cov {
		t.Errorf("CPVF rc=30 coverage %.3f should be well below rc=60's %.3f", cpvf30.cov, cpvf60.cov)
	}
	if cpvfObs.cov >= cpvf60.cov {
		t.Errorf("obstacles should reduce CPVF coverage: %.3f vs %.3f", cpvfObs.cov, cpvf60.cov)
	}
	// Fig 8 vs Fig 3: FLOOR dominates CPVF at small rc and with obstacles.
	if floor30.cov < 1.4*cpvf30.cov {
		t.Errorf("FLOOR rc=30 %.3f should dominate CPVF %.3f", floor30.cov, cpvf30.cov)
	}
	if floorObs.cov < 1.2*cpvfObs.cov {
		t.Errorf("FLOOR two-obs %.3f should dominate CPVF %.3f", floorObs.cov, cpvfObs.cov)
	}
	// The connectivity guarantee holds wherever the pipeline converges
	// within the horizon (EXPERIMENTS.md documents the D4 horizon effect
	// for FLOOR's rc=30 and obstacle scenarios).
	for name, o := range map[string]outcome{
		"cpvf60": cpvf60, "cpvf30": cpvf30, "cpvfObs": cpvfObs, "floor60": floor60,
	} {
		if !o.connected {
			t.Errorf("%s: final network disconnected", name)
		}
	}
	// Message overhead stays within the paper's order of magnitude.
	for name, o := range map[string]outcome{"floor60": floor60, "floor30": floor30} {
		if o.msgs > 3_000_000 {
			t.Errorf("%s: %d messages beyond the paper's order of magnitude", name, o.msgs)
		}
	}
}
