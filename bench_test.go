package mobisense_test

// The bench harness regenerates every table and figure of the paper's
// evaluation as Go benchmarks, reporting each row of an artifact through
// b.ReportMetric so that
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation end to end. Benches run the quick
// sweeps of the figure registry (full N = 240 scenarios, reduced sweep
// grids); deploy -figure runs the full grids.

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"mobisense"
	"mobisense/internal/experiments"
	"mobisense/internal/store"
)

// benchFigure runs a figure's quick sweep per op and reports the named
// metrics of every row of the last op, one unit per row key (units must
// not contain whitespace).
func benchFigure(b *testing.B, name string, metrics ...string) {
	fig, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("no figure %q", name)
	}
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		sr, err := fig.Quick.Run(context.Background(), mobisense.BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rows, err = fig.Rows(sr.Runs); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		key := []string{string(r.Scheme), r.Scenario, "n" + strconv.Itoa(r.N)}
		for _, a := range r.Axes {
			key = append(key, a.Name+"-"+a.ValueString())
		}
		if r.Stat != "" {
			key = append(key, r.Stat)
		}
		values := map[string]float64{"coverage": r.Coverage, "distance": r.Distance,
			"messages": r.Messages, "connected": r.Connected, "paper": r.Paper}
		for _, m := range metrics {
			if m != "paper" || r.Paper != 0 {
				b.ReportMetric(values[m], strings.Join(key, "_")+"/"+m)
			}
		}
	}
}

// BenchmarkFig3CPVFCoverage regenerates Figure 3: CPVF's coverage in the
// canonical scenarios (obstacle-free and two obstacles, rc = 60 and 30).
func BenchmarkFig3CPVFCoverage(b *testing.B) { benchFigure(b, "fig3", "coverage", "paper") }

// BenchmarkFig8FLOORCoverage regenerates Figure 8: FLOOR in the same
// scenarios.
func BenchmarkFig8FLOORCoverage(b *testing.B) { benchFigure(b, "fig8", "coverage", "paper") }

// BenchmarkFig9CoverageSweep regenerates Figure 9: coverage of CPVF,
// FLOOR and OPT across sensor counts and communication ranges.
func BenchmarkFig9CoverageSweep(b *testing.B) { benchFigure(b, "fig9", "coverage") }

// BenchmarkFig10VoronoiComparison regenerates Figure 10: FLOOR vs VOR vs
// Minimax over rc/rs, with disconnection and incorrect-VD detection.
func BenchmarkFig10VoronoiComparison(b *testing.B) {
	benchFigure(b, "fig10", "coverage", "connected")
}

// BenchmarkFig11MovingDistance regenerates Figure 11: average moving
// distance of the schemes and the Hungarian lower bounds.
func BenchmarkFig11MovingDistance(b *testing.B) { benchFigure(b, "fig11", "distance") }

// BenchmarkFig12OscillationAvoidance regenerates Figure 12: the effect of
// the oscillation-avoidance factor δ on CPVF's distance and coverage.
func BenchmarkFig12OscillationAvoidance(b *testing.B) {
	benchFigure(b, "fig12", "distance", "coverage")
}

// BenchmarkFig13RandomObstacles regenerates Figure 13: coverage and
// moving-distance distributions of CPVF and FLOOR over random-obstacle
// deployments.
func BenchmarkFig13RandomObstacles(b *testing.B) {
	benchFigure(b, "fig13", "coverage", "distance")
}

// BenchmarkTable1MessageOverhead regenerates Table 1: FLOOR's protocol
// message counts across N and invitation TTL.
func BenchmarkTable1MessageOverhead(b *testing.B) {
	benchFigure(b, "table1", "messages", "paper")
}

// ---------------------------------------------------------------------------
// Ablation benches for the design choices DESIGN.md calls out.

func ablationConfig(s mobisense.Scheme) mobisense.Config {
	cfg := mobisense.DefaultConfig(s)
	cfg.N = 120
	return cfg
}

// BenchmarkAblationLazyMovement compares CPVF's moving distance with and
// without the §3.3 lazy-movement strategy.
func BenchmarkAblationLazyMovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on, err := mobisense.Run(ablationConfig(mobisense.SchemeCPVF))
		if err != nil {
			b.Fatal(err)
		}
		cfg := ablationConfig(mobisense.SchemeCPVF)
		cfg.CPVF = &mobisense.CPVFOptions{DisableLazy: true}
		offRes, err := mobisense.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(on.AvgMoveDistance, "lazy-on/distance")
			b.ReportMetric(offRes.AvgMoveDistance, "lazy-off/distance")
			b.ReportMetric(on.Coverage, "lazy-on/coverage")
			b.ReportMetric(offRes.Coverage, "lazy-off/coverage")
		}
	}
}

// BenchmarkAblationParentChange compares CPVF with and without the §4.2
// parent-change protocol.
func BenchmarkAblationParentChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on, err := mobisense.Run(ablationConfig(mobisense.SchemeCPVF))
		if err != nil {
			b.Fatal(err)
		}
		cfg := ablationConfig(mobisense.SchemeCPVF)
		cfg.CPVF = &mobisense.CPVFOptions{DisallowParentChange: true}
		off, err := mobisense.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(on.Coverage, "parent-change-on/coverage")
			b.ReportMetric(off.Coverage, "parent-change-off/coverage")
		}
	}
}

// BenchmarkAblationFloorTTL sweeps FLOOR's invitation TTL, the
// message-overhead vs coverage trade of Table 1.
func BenchmarkAblationFloorTTL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ttl := range []int{12, 24, 48} {
			cfg := ablationConfig(mobisense.SchemeFLOOR)
			cfg.Floor = &mobisense.FloorOptions{TTL: ttl}
			res, err := mobisense.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				label := "ttl-" + strconv.Itoa(ttl)
				b.ReportMetric(res.Coverage, label+"/coverage")
				b.ReportMetric(float64(res.Messages)/1000, label+"/messages_k")
			}
		}
	}
}

// BenchmarkAblationExclusiveFrac sweeps FLOOR's §5.3 movability threshold.
func BenchmarkAblationExclusiveFrac(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, frac := range []float64{0.2, 0.4, 0.6, 0.8} {
			cfg := ablationConfig(mobisense.SchemeFLOOR)
			cfg.Floor = &mobisense.FloorOptions{ExclusiveFrac: frac}
			res, err := mobisense.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				label := "frac-" + strconv.FormatFloat(frac, 'g', -1, 64)
				b.ReportMetric(res.Coverage, label+"/coverage")
				b.ReportMetric(res.AvgMoveDistance, label+"/distance")
			}
		}
	}
}

// BenchmarkAblationFloorRouting compares Algorithm 1's three-leg connect
// route against a straight BUG2 walk (§5.2's overlap-reduction claim).
func BenchmarkAblationFloorRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		threeLeg, err := mobisense.Run(ablationConfig(mobisense.SchemeFLOOR))
		if err != nil {
			b.Fatal(err)
		}
		cfg := ablationConfig(mobisense.SchemeFLOOR)
		cfg.Floor = &mobisense.FloorOptions{DirectConnectWalk: true}
		direct, err := mobisense.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(threeLeg.Coverage, "three-leg/coverage")
			b.ReportMetric(direct.Coverage, "direct/coverage")
			b.ReportMetric(threeLeg.AvgMoveDistance, "three-leg/distance")
			b.ReportMetric(direct.AvgMoveDistance, "direct/distance")
		}
	}
}

// BenchmarkAblationExpansionPriority compares FLOOR with and without the
// FLG > BLG > IFLG invitation priority (§5.5.1).
func BenchmarkAblationExpansionPriority(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on, err := mobisense.Run(ablationConfig(mobisense.SchemeFLOOR))
		if err != nil {
			b.Fatal(err)
		}
		cfg := ablationConfig(mobisense.SchemeFLOOR)
		cfg.Floor = &mobisense.FloorOptions{DisablePriority: true}
		off, err := mobisense.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(on.Coverage, "priority-on/coverage")
			b.ReportMetric(off.Coverage, "priority-off/coverage")
		}
	}
}

// ---------------------------------------------------------------------------
// Batch-runner throughput: the same small scheme×scenario sweep executed
// sequentially and on the full worker pool. The ratio tracks how well the
// experiment suite's hot path saturates the hardware.

func batchSweep() mobisense.Sweep {
	cfg := mobisense.DefaultConfig(mobisense.SchemeFLOOR)
	cfg.N = 60
	cfg.Duration = 150
	return mobisense.Sweep{
		Base:      cfg,
		Schemes:   []mobisense.Scheme{mobisense.SchemeCPVF, mobisense.SchemeFLOOR},
		Scenarios: []string{"free", "two-obstacles"},
		Repeats:   2,
		Seed:      1,
	}
}

func benchmarkBatchSweep(b *testing.B, workers int) {
	// Allocation tracking guards the per-run pooling work. The first
	// pooling pass (event heaps, spatial indexes, neighbor scratch) cut
	// this sweep from ~594k to ~199k allocs/op; the epoch-stamped coverage
	// scratch, dense spatial buckets, struct-of-arrays world state and
	// scheme-layer scratch then took it to ~2.8k allocs/op and ~1.6 MB/op,
	// every step with bit-identical coverage metrics. The checked-in
	// BENCH_PR6.json snapshot and cmd/bench gate this in CI.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sr, err := batchSweep().Run(context.Background(), mobisense.BatchOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, a := range sr.Aggregates {
				label := string(a.Scheme) + "-" + a.Scenario
				b.ReportMetric(a.Coverage.Mean, label+"/coverage")
			}
		}
	}
}

// BenchmarkBatchSweepSequential runs the sweep on one worker.
func BenchmarkBatchSweepSequential(b *testing.B) { benchmarkBatchSweep(b, 1) }

// BenchmarkBatchSweepParallel runs the same sweep on GOMAXPROCS workers.
func BenchmarkBatchSweepParallel(b *testing.B) { benchmarkBatchSweep(b, 0) }

// BenchmarkIncrementalTraceSweep measures the workload the incremental
// coverage engine targets: a densely-traced obstacle sweep where every
// trace sample needs the coverage fraction. After the first sample's
// seed, each sample costs one scan of each moved sensor's new disk plus
// the cells whose cover count changes.
// TestObstacleSweepStoreGolden pins a traced sweep's stored bytes.
func BenchmarkIncrementalTraceSweep(b *testing.B) {
	cfg := mobisense.DefaultConfig(mobisense.SchemeFLOOR)
	cfg.N = 40
	cfg.Duration = 300
	cfg.Trace = &mobisense.TraceOptions{Stride: 2}
	sweep := mobisense.Sweep{
		Base:      cfg,
		Schemes:   []mobisense.Scheme{mobisense.SchemeCPVF, mobisense.SchemeFLOOR},
		Scenarios: []string{"narrow-door", "random-obstacles"},
		Repeats:   2,
		Seed:      7,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sr, err := sweep.Run(context.Background(), mobisense.BatchOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, a := range sr.Aggregates {
				label := string(a.Scheme) + "-" + a.Scenario
				b.ReportMetric(a.Coverage.Mean, label+"/coverage")
			}
		}
	}
}

// BenchmarkStoreWrite measures the sweep store's per-record JSONL
// encode+flush cost — the persistence overhead each finished run pays on
// top of its simulation time.
func BenchmarkStoreWrite(b *testing.B) {
	w, err := store.Create(b.TempDir(), store.Manifest{Kind: "batch", TotalRuns: b.N})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := store.Record{
		Scheme:            "floor",
		Scenario:          "random-obstacles",
		N:                 240,
		Seed:              0x9e3779b97f4a7c15,
		ConfigFingerprint: "a1b2c3d4e5f60718",
		Coverage:          0.7312345678,
		Coverage2:         0.3312345678,
		Alive:             240,
		AvgMoveDistance:   123.456789,
		Messages:          457000,
		ConvergenceTime:   714.25,
		Connected:         true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Index = i
		rec.Repeat = i
		if err := w.Append(i, rec, 250*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N), "records")
}
