package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// benchOut is canned `go test -bench -benchmem -count 2` output: two
// packages, repeated lines whose best (minimum) metric wins, and noise
// lines parse must skip.
const benchOut = `goos: linux
goarch: amd64
pkg: mobisense/internal/core
cpu: Intel(R) Xeon(R) Processor
BenchmarkNeighborsWithin-2   	    1000	    110000 ns/op	       0 B/op	       0 allocs/op
BenchmarkNeighborsWithin-2   	    1000	    104000 ns/op	      16 B/op	       1 allocs/op
PASS
ok  	mobisense/internal/core	1.2s
pkg: mobisense
BenchmarkBatchSweepSequential-2   	       1	 900000000 ns/op	 1500000 B/op	    2850 allocs/op
BenchmarkBatchSweepSequential-2   	       1	 950000000 ns/op	 1490000 B/op	    2840 allocs/op
--- BENCH: BenchmarkSkipped
PASS
`

func snapshot(t *testing.T, out string) Snapshot {
	t.Helper()
	res := parse(out)
	if len(res) == 0 {
		t.Fatal("parse found no benchmarks")
	}
	return Snapshot{Benchmarks: res}
}

func TestParseKeepsBestPerMetric(t *testing.T) {
	res := parse(benchOut)
	want := map[string]Result{
		"BenchmarkNeighborsWithin":      {Pkg: "mobisense/internal/core", NsOp: 104000, BOp: 0, AllocsOp: 0},
		"BenchmarkBatchSweepSequential": {Pkg: "mobisense", NsOp: 900000000, BOp: 1490000, AllocsOp: 2840},
	}
	if len(res) != len(want) {
		t.Fatalf("parse = %v, want %v", res, want)
	}
	for name, w := range want {
		if res[name] != w {
			t.Errorf("%s = %+v, want %+v", name, res[name], w)
		}
	}
}

// TestGate runs parsed snapshots through gate: a zero allocs/op baseline
// fails at 1 alloc/op, changes within tolerance pass, a benchmark missing
// from the current run fails, and an ns/op regression past the tolerance
// fails only with nsGate.
func TestGate(t *testing.T) {
	base := snapshot(t, benchOut)
	cases := []struct {
		name    string
		cur     string
		nsGate  bool
		pass    bool
		verdict string
	}{
		{
			name: "zero baseline starts allocating",
			cur: strings.ReplaceAll(benchOut,
				"       0 B/op	       0 allocs/op", "      16 B/op	       1 allocs/op"),
			pass:    false,
			verdict: "FAIL BenchmarkNeighborsWithin: allocs/op 0 -> 1 (zero baseline)",
		},
		{
			// One repetition of each benchmark regresses past the
			// tolerances; the best of the two stays within them.
			name: "within tolerance",
			cur: strings.NewReplacer(
				"    110000 ns/op", "    115000 ns/op",
				"    104000 ns/op", "    114000 ns/op",
				"    2840 allocs/op", "    3100 allocs/op",
			).Replace(benchOut),
			nsGate:  true,
			pass:    true,
			verdict: "ok   BenchmarkBatchSweepSequential: allocs/op 2840 -> 2850 (+0.4%)",
		},
		{
			name:    "missing benchmark",
			cur:     benchOut[strings.Index(benchOut, "pkg: mobisense\n"):],
			pass:    false,
			verdict: "FAIL BenchmarkNeighborsWithin: benchmark missing from current run",
		},
		{
			name: "ns/op regression warns",
			cur: strings.NewReplacer(
				"    110000 ns/op", "    300000 ns/op",
				"    104000 ns/op", "    300000 ns/op",
			).Replace(benchOut),
			pass:    true,
			verdict: "warn BenchmarkNeighborsWithin: ns/op 104000 -> 300000",
		},
		{
			name: "ns/op regression fails with the ns gate",
			cur: strings.NewReplacer(
				"    110000 ns/op", "    300000 ns/op",
				"    104000 ns/op", "    300000 ns/op",
			).Replace(benchOut),
			nsGate:  true,
			pass:    false,
			verdict: "FAIL BenchmarkNeighborsWithin: ns/op 104000 -> 300000",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := gate(&out, base, snapshot(t, tc.cur), 0.10, 0.15, tc.nsGate); got != tc.pass {
				t.Errorf("gate = %v, want %v; output:\n%s", got, tc.pass, out.String())
			}
			if !strings.Contains(out.String(), tc.verdict) {
				t.Errorf("output lacks %q:\n%s", tc.verdict, out.String())
			}
		})
	}
}

// TestRunFlags: run reports a bad flag on stderr with exit code 2 and
// prints usage for -h with exit code 0, in both cases without running
// the suite.
func TestRunFlags(t *testing.T) {
	for _, tc := range []struct {
		arg, stderr string
		code        int
	}{
		{"-no-such-flag", "no-such-flag", 2},
		{"-h", "-ns-gate", 0},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{tc.arg}, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit code %d, want %d", tc.arg, code, tc.code)
		}
		if !strings.Contains(stderr.String(), tc.stderr) || stdout.Len() != 0 {
			t.Errorf("%s: stdout %q, stderr %q", tc.arg, stdout.String(), stderr.String())
		}
	}
}

// TestDefaultBenchRegexpExact: the suite's expression selects each
// tracked benchmark by its whole name, so a benchmark whose name extends
// another's (EngineStep, EngineStepTicked) is selected only when listed.
func TestDefaultBenchRegexpExact(t *testing.T) {
	re := regexp.MustCompile(defaultBenchRegexp)
	for _, name := range []string{"BenchmarkEngineStep", "BenchmarkEngineStepTicked", "BenchmarkNeighborsWithin", "BenchmarkWalkNeighbors", "BenchmarkLazyWait",
		"BenchmarkBuildRandomField", "BenchmarkNewEstimator"} {
		if !re.MatchString(name) {
			t.Errorf("%s is not selected", name)
		}
		if re.MatchString(name+"X") || re.MatchString("X"+name) {
			t.Errorf("names extending %s are selected", name)
		}
	}
}
