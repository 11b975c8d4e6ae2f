package core

import "mobisense/internal/geom"

// TraceSample is one instantaneous observation of a running deployment:
// the per-tick telemetry behind run-level traces. Coverage is left zero
// here — the estimator lives above core, so the caller fills it from the
// layout SampleTrace returns.
type TraceSample struct {
	// Time is the simulation clock at the sample.
	Time float64
	// Alive is the number of non-failed sensors; Moving how many of them
	// are mid-step; Connected how many are unit-disk reachable from the
	// base station.
	Alive, Moving, Connected int
	// TotalMoved is the summed cumulative path length over all sensors
	// (failed ones keep the distance they spent); MaxMoved the largest
	// single sensor's.
	TotalMoved, MaxMoved float64
}

// SampleTrace fills s with the world's telemetry at the current time and
// returns the alive-sensor layout it was computed from, for coverage
// estimation by the caller. The returned slice is scratch owned by the
// world, valid until the next SampleTrace call. The layout and the
// connectivity search run on world-owned buffers, so sampling allocates
// nothing once they have grown.
//
// SampleTrace never touches the engine's random source, so sampling —
// at any stride — cannot perturb a run's outcome.
func (w *World) SampleTrace(s *TraceSample) []geom.Vec {
	now := w.Now()
	pts := w.traceLayout[:0]
	*s = TraceSample{Time: now}
	for i := range w.Sensors {
		sn := &w.Sensors[i]
		s.TotalMoved += sn.Traveled
		if sn.Traveled > s.MaxMoved {
			s.MaxMoved = sn.Traveled
		}
		if sn.Failed {
			continue
		}
		s.Alive++
		if w.Moving(i, now) {
			s.Moving++
		}
		pts = append(pts, w.PosAt(i, now))
	}
	w.traceLayout = pts
	for _, ok := range w.reach.run(pts, w.F.Reference(), w.P.Rc) {
		if ok {
			s.Connected++
		}
	}
	return pts
}
