package mobisense_test

// The bench harness regenerates every table and figure of the paper's
// evaluation as Go benchmarks, reporting the headline quantity of each
// artifact through b.ReportMetric so that
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation end to end. Benches run the Quick
// variants of the experiment sweeps (full N = 240 scenarios, reduced sweep
// grids); the cmd/experiments binary runs the full grids.

import (
	"context"
	"strings"
	"testing"
	"time"

	"mobisense"
	"mobisense/internal/experiments"
	"mobisense/internal/store"
)

// metricName sanitizes a row label into a benchmark metric unit (metric
// units must not contain whitespace).
func metricName(label, metric string) string {
	r := strings.NewReplacer(" ", "_", "(", "", ")", "", "=", "", ",", "")
	return r.Replace(label) + "/" + metric
}

func reportRows(b *testing.B, rows []experiments.Row, metrics ...string) {
	b.Helper()
	for _, r := range rows {
		for _, m := range metrics {
			b.ReportMetric(r.Get(m), metricName(r.Label, m))
		}
	}
}

// BenchmarkFig3CPVFCoverage regenerates Figure 3: CPVF's coverage in the
// three canonical scenarios (obstacle-free rc=60/rs=40, rc=30, and the
// two-obstacle field).
func BenchmarkFig3CPVFCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3(experiments.Options{Quick: true})
		if i == b.N-1 {
			reportRows(b, rows, "coverage", "paper_coverage")
		}
	}
}

// BenchmarkFig8FLOORCoverage regenerates Figure 8: FLOOR in the same
// scenarios.
func BenchmarkFig8FLOORCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8(experiments.Options{Quick: true})
		if i == b.N-1 {
			reportRows(b, rows, "coverage", "paper_coverage")
		}
	}
}

// BenchmarkFig9CoverageSweep regenerates Figure 9: coverage of CPVF,
// FLOOR and OPT across sensor counts and (rc, rs) pairs.
func BenchmarkFig9CoverageSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig9(experiments.Options{Quick: true})
		if i == b.N-1 {
			reportRows(b, rows, "cpvf_coverage", "floor_coverage", "opt_coverage")
		}
	}
}

// BenchmarkFig10VoronoiComparison regenerates Figure 10: FLOOR vs VOR vs
// Minimax over rc/rs, with disconnection and incorrect-VD detection.
func BenchmarkFig10VoronoiComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig10(experiments.Options{Quick: true})
		if i == b.N-1 {
			reportRows(b, rows, "floor_coverage", "vor_coverage", "minimax_coverage",
				"vor_connected", "minimax_connected")
		}
	}
}

// BenchmarkFig11MovingDistance regenerates Figure 11: average moving
// distance of the six schemes.
func BenchmarkFig11MovingDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig11(experiments.Options{Quick: true})
		if i == b.N-1 {
			reportRows(b, rows, "avg_distance")
		}
	}
}

// BenchmarkFig12OscillationAvoidance regenerates Figure 12: the effect of
// the oscillation-avoidance factor δ on CPVF's distance and coverage.
func BenchmarkFig12OscillationAvoidance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12(experiments.Options{Quick: true})
		if i == b.N-1 {
			reportRows(b, rows, "avg_distance", "coverage")
		}
	}
}

// BenchmarkFig13RandomObstacles regenerates Figure 13: coverage and
// moving-distance distributions of CPVF and FLOOR over random-obstacle
// deployments.
func BenchmarkFig13RandomObstacles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig13(experiments.Options{Quick: true})
		if i == b.N-1 {
			reportRows(b, rows[:1], "cpvf_coverage", "floor_coverage",
				"cpvf_distance", "floor_distance")
		}
	}
}

// BenchmarkTable1MessageOverhead regenerates Table 1: FLOOR's protocol
// message counts across N and invitation TTL.
func BenchmarkTable1MessageOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(experiments.Options{Quick: true})
		if i == b.N-1 {
			reportRows(b, rows, "total_k", "per_node_k", "paper_total_k")
		}
	}
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
				label := "ttl-" + itoa(ttl)
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
				label := "frac-" + ftoa(frac)
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

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func ftoa(v float64) string {
	return itoa(int(v*10 + 0.5))
}
