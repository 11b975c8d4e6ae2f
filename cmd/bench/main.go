// Command bench runs the repository's perf-tracking benchmark suite with
// allocation accounting, records the results as a JSON snapshot, and
// compares the current tree against a checked-in snapshot.
//
// Snapshot a baseline (done once per perf-sensitive PR):
//
//	go run ./cmd/bench -count 5 -out BENCH_PR22.json
//
// Gate the current tree against it (CI's bench-gate job):
//
//	go run ./cmd/bench -count 5 -compare BENCH_PR22.json -ns-gate -ns-tol 0.75
//
// The gate fails when any benchmark's allocs/op regresses by more than
// -allocs-tol (default 10%), or, for a benchmark recorded at 0 allocs/op,
// when it reads 1 alloc/op or more. Wall-clock (ns/op) is
// machine-dependent, so ns/op regressions beyond -ns-tol (default 15%)
// only warn unless -ns-gate is set; CI gates with a generous tolerance
// that still catches the multi-x cost of losing a kernel fast path. With
// -count > 1 the best (minimum) of the repetitions is used, which
// suppresses GC-timing noise in pooled allocation counts and scheduler
// jitter in wall-clock numbers.
//
// To profile a kernel, narrow -pkgs to one package and pass the profile
// through:
//
//	go run ./cmd/bench -pkgs ./internal/coverage -bench BenchmarkFractionLOS -cpuprofile cpu.out
//	go tool pprof -top cpu.out
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// defaultBenchRegexp selects the perf-tracking benchmarks: the end-to-end
// batch sweep (the headline allocs/op number), the store writer, the
// pooled hot-path micro benches in internal/coverage and internal/spatial,
// the world's padded neighbor query, its kept walk answers and the lazy
// steps of waiting sensors that read them, the event
// engine's queue with and without a periodic ticker, the
// geometry/connectivity kernel benches guarded by the ns/op gate
// (FirstHit, LOS coverage, exclusive area, unit-disk flood), the field
// set-up kernels (a random-obstacle field's build and validation, an
// estimator's free mask), and the trace-sampling kernels (incremental
// coverage, tracker seed, a transient sample's fleet-wide move,
// per-sample world telemetry). The expression is anchored at both ends,
// so no name matches another by prefix.
const defaultBenchRegexp = "^(BenchmarkBatchSweepSequential|BenchmarkBatchSweepParallel|" +
	"BenchmarkStoreWrite|BenchmarkFractionReuse|BenchmarkInsertMoveQuery|BenchmarkNeighborsWithin|BenchmarkWalkNeighbors|BenchmarkLazyWait|" +
	"BenchmarkEngineStep|BenchmarkEngineStepTicked|" +
	"BenchmarkFirstHit|BenchmarkFractionLOS|BenchmarkExclusiveArea|BenchmarkUnitDiskReachable|" +
	"BenchmarkBuildRandomField|BenchmarkNewEstimator|" +
	"BenchmarkFractionIncremental|BenchmarkIncrementalTraceSweep|" +
	"BenchmarkTrackerSeedLOS|BenchmarkTrackerMoveLOS|BenchmarkSampleTrace)$"

// Result is one benchmark's measured costs.
type Result struct {
	Pkg      string  `json:"pkg"`
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// Snapshot is the on-disk baseline format (BENCH_PR6.json).
type Snapshot struct {
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	BenchRegex string            `json:"bench_regex"`
	BenchTime  string            `json:"bench_time"`
	Count      int               `json:"count"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs the suite, and writes the
// table, the snapshot and the gate verdict. It returns the exit code:
// 0 on success or -h, 1 on a failed gate or a run error, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchRe   = fs.String("bench", defaultBenchRegexp, "benchmark regexp passed to go test -bench")
		benchTime = fs.String("benchtime", "1x", "go test -benchtime value")
		count     = fs.Int("count", 1, "repetitions; the best (min) of each metric is kept")
		pkgs      = fs.String("pkgs", "./...", "packages to benchmark")
		out       = fs.String("out", "", "write the snapshot JSON to this path")
		compare   = fs.String("compare", "", "compare against the snapshot JSON at this path")
		allocsTol = fs.Float64("allocs-tol", 0.10, "max allowed fractional allocs/op regression")
		nsTol     = fs.Float64("ns-tol", 0.15, "ns/op regression fraction that triggers a warning")
		nsGate    = fs.Bool("ns-gate", false, "fail (not just warn) on ns/op regressions beyond -ns-tol")
		cpuProf   = fs.String("cpuprofile", "", "pass -cpuprofile to go test (requires -pkgs to name a single package)")
		memProf   = fs.String("memprofile", "", "pass -memprofile to go test (requires -pkgs to name a single package)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	cur, err := goTestBench(stderr, *benchRe, *benchTime, *count, *pkgs, *cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	snap := Snapshot{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		BenchRegex: *benchRe,
		BenchTime:  *benchTime,
		Count:      *count,
		Benchmarks: cur,
	}

	for _, name := range sortedNames(cur) {
		r := cur[name]
		fmt.Fprintf(stdout, "%-32s %14.0f ns/op %12.0f B/op %10.0f allocs/op\n", name, r.NsOp, r.BOp, r.AllocsOp)
	}

	if *out != "" {
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "snapshot written to", *out)
	}

	if *compare != "" {
		base, err := load(*compare)
		if err != nil {
			return fail(err)
		}
		if base.GOMAXPROCS != snap.GOMAXPROCS {
			fmt.Fprintf(stdout, "note: snapshot taken at GOMAXPROCS=%d, running at %d; "+
				"ns/op comparisons are indicative only\n", base.GOMAXPROCS, snap.GOMAXPROCS)
		}
		printDelta(stdout, base, snap)
		if !gate(stdout, base, snap, *allocsTol, *nsTol, *nsGate) {
			return 1
		}
		fmt.Fprintln(stdout, "bench gate: PASS")
	}
	return 0
}

// goTestBench executes the benchmark suite `count` times and keeps the
// minimum of every metric per benchmark. go test's stderr goes to
// stderr.
func goTestBench(stderr io.Writer, benchRe, benchTime string, count int, pkgs, cpuProf, memProf string) (map[string]Result, error) {
	args := []string{"test", "-run", "^$", "-bench", benchRe, "-benchmem",
		"-benchtime", benchTime, "-count", strconv.Itoa(count)}
	// Profile passthrough: go test rejects profile flags across multiple
	// packages, so callers narrow with -pkgs (see the README profiling
	// workflow).
	if cpuProf != "" {
		args = append(args, "-cpuprofile", cpuProf)
	}
	if memProf != "" {
		args = append(args, "-memprofile", memProf)
	}
	args = append(args, strings.Fields(pkgs)...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = stderr
	outBuf, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	res := parse(string(outBuf))
	if len(res) == 0 {
		return nil, fmt.Errorf("no benchmark results matched %q", benchRe)
	}
	return res, nil
}

// parse extracts ns/op, B/op and allocs/op from `go test -bench` output,
// keeping the minimum across repeated lines of the same benchmark.
func parse(out string) map[string]Result {
	res := make(map[string]Result)
	pkg := ""
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") || !strings.Contains(line, "ns/op") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		// Strip the -GOMAXPROCS suffix from the name.
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i]
		}
		r := Result{Pkg: pkg, NsOp: -1, BOp: -1, AllocsOp: -1}
		for i := 2; i < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				continue
			}
			switch fields[i] {
			case "ns/op":
				r.NsOp = v
			case "B/op":
				r.BOp = v
			case "allocs/op":
				r.AllocsOp = v
			}
		}
		if r.NsOp < 0 {
			continue
		}
		if prev, ok := res[name]; ok {
			r.NsOp = min(r.NsOp, prev.NsOp)
			r.BOp = min(r.BOp, prev.BOp)
			r.AllocsOp = min(r.AllocsOp, prev.AllocsOp)
		}
		res[name] = r
	}
	return res
}

// printDelta prints a benchstat-style comparison of the current run
// against the baseline snapshot — old, new and % change for ns/op, B/op
// and allocs/op — covering every benchmark present in either side, so
// before/after tables in the README and PR descriptions can be pasted
// instead of hand-assembled.
func printDelta(w io.Writer, base, cur Snapshot) {
	all := make(map[string]Result, len(base.Benchmarks)+len(cur.Benchmarks))
	for n, r := range base.Benchmarks {
		all[n] = r
	}
	for n, r := range cur.Benchmarks {
		all[n] = r
	}
	fmt.Fprintf(w, "\n%-32s %35s  %35s  %35s\n", "", "ns/op", "B/op", "allocs/op")
	fmt.Fprintf(w, "%-32s %12s %12s %9s  %12s %12s %9s  %12s %12s %9s\n",
		"benchmark", "old", "new", "delta", "old", "new", "delta", "old", "new", "delta")
	for _, name := range sortedNames(all) {
		b, inBase := base.Benchmarks[name]
		c, inCur := cur.Benchmarks[name]
		row := fmt.Sprintf("%-32s", strings.TrimPrefix(name, "Benchmark"))
		for _, m := range [][2]float64{{b.NsOp, c.NsOp}, {b.BOp, c.BOp}, {b.AllocsOp, c.AllocsOp}} {
			row += fmt.Sprintf(" %12s %12s %9s ",
				cell(m[0], inBase), cell(m[1], inCur), delta(m[0], m[1], inBase && inCur))
		}
		fmt.Fprintln(w, row)
	}
	fmt.Fprintln(w)
}

// cell renders one metric value ("-" for a side the benchmark is missing
// from).
func cell(v float64, present bool) string {
	if !present || v < 0 {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', 0, 64)
}

// delta renders the percent change between a baseline and current value.
func delta(old, new float64, comparable bool) string {
	switch {
	case !comparable || old < 0 || new < 0:
		return "-"
	case old == 0 && new == 0:
		return "~"
	case old == 0:
		return "+inf%"
	default:
		return fmt.Sprintf("%+.1f%%", 100*(new/old-1))
	}
}

// gate compares current results against the baseline snapshot, writing
// one line per verdict to w. It returns false when any gated threshold
// is exceeded or a baseline benchmark is missing from the current run.
// A baseline of 0 allocs/op has no fractional tolerance: the gate fails
// once the best reading reaches 1 alloc/op.
func gate(w io.Writer, base, cur Snapshot, allocsTol, nsTol float64, nsGate bool) bool {
	ok := true
	for _, name := range sortedNames(base.Benchmarks) {
		b := base.Benchmarks[name]
		c, found := cur.Benchmarks[name]
		if !found {
			fmt.Fprintf(w, "FAIL %s: benchmark missing from current run\n", name)
			ok = false
			continue
		}
		switch {
		case b.AllocsOp > 0:
			frac := c.AllocsOp/b.AllocsOp - 1
			if frac > allocsTol {
				fmt.Fprintf(w, "FAIL %s: allocs/op %.0f -> %.0f (%+.1f%%, tolerance %.0f%%)\n",
					name, b.AllocsOp, c.AllocsOp, 100*frac, 100*allocsTol)
				ok = false
			} else {
				fmt.Fprintf(w, "ok   %s: allocs/op %.0f -> %.0f (%+.1f%%)\n",
					name, b.AllocsOp, c.AllocsOp, 100*frac)
			}
		case b.AllocsOp == 0:
			if c.AllocsOp >= 1 {
				fmt.Fprintf(w, "FAIL %s: allocs/op 0 -> %.0f (zero baseline)\n", name, c.AllocsOp)
				ok = false
			} else {
				fmt.Fprintf(w, "ok   %s: allocs/op 0 -> %.0f\n", name, c.AllocsOp)
			}
		}
		if b.NsOp > 0 {
			frac := c.NsOp/b.NsOp - 1
			if frac > nsTol {
				verdict := "warn"
				if nsGate {
					verdict = "FAIL"
					ok = false
				}
				fmt.Fprintf(w, "%s %s: ns/op %.0f -> %.0f (%+.1f%%, tolerance %.0f%%)\n",
					verdict, name, b.NsOp, c.NsOp, 100*frac, 100*nsTol)
			}
		}
	}
	return ok
}

func load(path string) (Snapshot, error) {
	var s Snapshot
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func sortedNames(m map[string]Result) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
