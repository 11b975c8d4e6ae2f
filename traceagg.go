package mobisense

import (
	"sort"

	istore "mobisense/internal/store"
)

// Per-axis-point trace aggregation: the per-run telemetry series of a
// sweep's repeats, aligned on the sampling-stride grid and summarized
// into mean curves with CI bands — the "coverage over time" figures of
// the paper's evaluation, computed across repeats instead of from one
// run. Grouping mirrors aggregateRuns (full axis tuple in the key) and
// iteration stays in run-index order, so the output is bit-identical
// whatever the worker count and however the sweep was sharded.

// TracePoint is one time slot of an aggregated trace: the summary of
// every group run's sample at that simulation time.
type TracePoint struct {
	// Time is the sample's simulation clock in seconds.
	Time float64 `json:"t"`
	// Runs is the number of runs contributing a sample at this time (runs
	// whose horizon ended earlier — stabilization, failures — drop out of
	// later points).
	Runs int `json:"runs"`
	// Summaries of the per-run telemetry at this time.
	Coverage   MetricSummary `json:"coverage"`
	Connected  MetricSummary `json:"connected"`
	Moving     MetricSummary `json:"moving"`
	TotalMoved MetricSummary `json:"total_moved"`
	MaxMoved   MetricSummary `json:"max_moved"`
}

// TraceAggregate is the aggregated telemetry curve of one
// (scheme, scenario, N, axis tuple) group: mean trajectories with CI
// bands over the group's traced runs.
type TraceAggregate struct {
	Scheme   Scheme      `json:"scheme"`
	Scenario string      `json:"scenario,omitempty"`
	N        int         `json:"n"`
	Axes     []AxisValue `json:"axes,omitempty"`
	// Runs is the number of traced runs in the group.
	Runs int `json:"runs"`
	// Points are the aligned time slots in ascending time order.
	Points []TracePoint `json:"points"`
}

// AggregateTraces aligns the trace series of a result set on their
// sampling grids and summarizes them per (scheme, scenario, N, axis
// tuple) group, in the groups' first-seen run-index order. Runs without
// a trace (untraced sweeps, baselines, failed runs) contribute nothing;
// when no run carries a trace the result is nil.
func AggregateTraces(runs []BatchResult) []TraceAggregate {
	type key struct {
		scheme   Scheme
		scenario string
		n        int
		axes     string
	}
	var order []key
	groups := map[key][][]TraceSample{}
	axesOf := map[key][]AxisValue{}
	for _, r := range runs {
		if r.Err != nil || len(r.Result.Trace) == 0 {
			continue
		}
		k := key{r.Spec.Scheme, r.Spec.Scenario, r.Spec.N, istore.AxesString(r.Spec.Axes)}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
			axesOf[k] = r.Spec.Axes
		}
		groups[k] = append(groups[k], r.Result.Trace)
	}
	if len(order) == 0 {
		return nil
	}
	out := make([]TraceAggregate, 0, len(order))
	for _, k := range order {
		traces := groups[k]
		out = append(out, TraceAggregate{
			Scheme:   k.scheme,
			Scenario: k.scenario,
			N:        k.n,
			Axes:     axesOf[k],
			Runs:     len(traces),
			Points:   alignTraces(traces),
		})
	}
	return out
}

// alignTraces merges a group's trace series on the union of their sample
// times and summarizes each slot over the runs that sampled it. All runs
// of a group share a config (and therefore a stride), so their times lie
// on one grid and match exactly; runs differ only in how far their
// horizon reached.
func alignTraces(traces [][]TraceSample) []TracePoint {
	seen := map[float64]bool{}
	var times []float64
	for _, tr := range traces {
		for _, s := range tr {
			if !seen[s.Time] {
				seen[s.Time] = true
				times = append(times, s.Time)
			}
		}
	}
	sort.Float64s(times)

	points := make([]TracePoint, 0, len(times))
	// One ascending cursor per run: each series is visited once overall,
	// keeping alignment O(samples), not O(points × runs).
	cursors := make([]int, len(traces))
	cov := make([]float64, 0, len(traces))
	conn := make([]float64, 0, len(traces))
	mov := make([]float64, 0, len(traces))
	tot := make([]float64, 0, len(traces))
	max := make([]float64, 0, len(traces))
	for _, t := range times {
		cov, conn, mov, tot, max = cov[:0], conn[:0], mov[:0], tot[:0], max[:0]
		for ri, tr := range traces {
			for cursors[ri] < len(tr) && tr[cursors[ri]].Time < t {
				cursors[ri]++
			}
			if cursors[ri] < len(tr) && tr[cursors[ri]].Time == t {
				s := tr[cursors[ri]]
				cov = append(cov, s.Coverage)
				conn = append(conn, float64(s.Connected))
				mov = append(mov, float64(s.Moving))
				tot = append(tot, s.TotalMoved)
				max = append(max, s.MaxMoved)
				cursors[ri]++
			}
		}
		points = append(points, TracePoint{
			Time:       t,
			Runs:       len(cov),
			Coverage:   metricSummary(cov),
			Connected:  metricSummary(conn),
			Moving:     metricSummary(mov),
			TotalMoved: metricSummary(tot),
			MaxMoved:   metricSummary(max),
		})
	}
	return points
}

// ConvergenceAggregate summarizes the convergence metrics over one
// aggregate group's traced runs.
type ConvergenceAggregate struct {
	// Runs is the number of traced runs summarized.
	Runs int `json:"runs"`
	// TimeTo90Coverage / TimeTo99Coverage / SettlingTime summarize the
	// per-run convergence times over all traced runs.
	TimeTo90Coverage MetricSummary `json:"t90"`
	TimeTo99Coverage MetricSummary `json:"t99"`
	SettlingTime     MetricSummary `json:"settle"`
	// TotalMovedAtSettle / MaxMovedAtSettle summarize the movement cost
	// at convergence.
	TotalMovedAtSettle MetricSummary `json:"settle_total_moved"`
	MaxMovedAtSettle   MetricSummary `json:"settle_max_moved"`
	// ConnectedRuns counts the runs that reached stable full
	// connectivity; TimeToConnectivity summarizes only those (runs that
	// never connected have no finite time to report).
	ConnectedRuns      int           `json:"connected_runs"`
	TimeToConnectivity MetricSummary `json:"tconn"`
}

// aggregateConvergence summarizes a group's per-run convergence metrics,
// or returns nil when no run in the group carried any.
func aggregateConvergence(runs []BatchResult) *ConvergenceAggregate {
	var t90, t99, settle, tot, max, tconn []float64
	for _, r := range runs {
		c := r.Result.Convergence
		if r.Err != nil || c == nil {
			continue
		}
		t90 = append(t90, c.TimeTo90Coverage)
		t99 = append(t99, c.TimeTo99Coverage)
		settle = append(settle, c.SettlingTime)
		tot = append(tot, c.TotalMovedAtSettle)
		max = append(max, c.MaxMovedAtSettle)
		if c.TimeToConnectivity >= 0 {
			tconn = append(tconn, c.TimeToConnectivity)
		}
	}
	if len(t90) == 0 {
		return nil
	}
	return &ConvergenceAggregate{
		Runs:               len(t90),
		TimeTo90Coverage:   metricSummary(t90),
		TimeTo99Coverage:   metricSummary(t99),
		SettlingTime:       metricSummary(settle),
		TotalMovedAtSettle: metricSummary(tot),
		MaxMovedAtSettle:   metricSummary(max),
		ConnectedRuns:      len(tconn),
		TimeToConnectivity: metricSummary(tconn),
	}
}
