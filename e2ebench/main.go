// Command e2ebench is the repository's end-to-end benchmark. It drives the
// system only through the calls a user makes — Sweep.Expand and Sweep.Run
// with a Store, and a Service over HTTP — checks every output, and prints
// each metric as "name value unit" followed by one JSON result line:
//
//	bash e2ebench/run.sh --workload fig13-random --seed 3 --seconds 20 --trace 0
//
// --trace 1 adds a profiled pass, under a CPU profile the harness starts
// and stops around each timed part, alternating with the unprofiled one,
// and prints the per-layer metrics instead of the end-to-end ones.
// --workload all (the default) runs every workload, each in a child
// process of its own; -sets K runs each workload K times with consecutive
// seeds and prints every metric's spread. The metric tables and workloads
// are the ones BENCHMARK.json lists; see README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed command line.
type config struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      int
	sets       int
	workdir    string
	update     bool
	goldenPath string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "all", "workload to run, or all (each in a child process)")
	fs.Uint64Var(&c.seed, "seed", defaultSeed, "seed the workload's inputs derive from")
	fs.Float64Var(&c.seconds, "seconds", 20, "how long the measured pass runs, in seconds")
	fs.IntVar(&c.trace, "trace", 0, "1: add the profiled pass and print per-layer metrics instead")
	fs.IntVar(&c.sets, "sets", 0, "run each workload K times (seeds seed..seed+K-1) and print each metric's spread")
	fs.StringVar(&c.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores and service data")
	fs.BoolVar(&c.update, "update-golden", false, "record the default seed's output digests in -golden")
	fs.StringVar(&c.goldenPath, "golden", filepath.Join("e2ebench", "golden.json"), "golden digest file -update-golden writes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, k := range []string{"MOBISENSE_NO_ACCEL", "MOBISENSE_NO_INCR"} {
		if os.Getenv(k) != "" {
			fmt.Fprintf(stderr, "e2ebench: %s is set: a kill-switched run measures a different program\n", k)
			return 2
		}
	}
	switch {
	case c.trace != 0 && c.trace != 1:
		fmt.Fprintln(stderr, "e2ebench: -trace must be 0 or 1")
		return 2
	case !(c.seconds > 0):
		fmt.Fprintln(stderr, "e2ebench: -seconds must be positive")
		return 2
	case c.update && (c.seed != defaultSeed || smokeScale):
		fmt.Fprintf(stderr, "e2ebench: -update-golden records seed %d at full scale only\n", defaultSeed)
		return 2
	}
	var names []string
	if c.workload == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := lookupWorkload(c.workload); ok {
		names = []string{c.workload}
	} else {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", c.workload)
		return 2
	}

	switch {
	case os.Getenv(setupChildEnv) != "":
		return setupChild(c, stdout, stderr)
	case c.sets > 0:
		return runSets(c, names, stdout, stderr)
	case c.workload == "all":
		code := 0
		for _, name := range names {
			if _, err := child(c, name, c.seed, stdout, stderr); err != nil {
				fmt.Fprintf(stderr, "e2ebench: %s: %v\n", name, err)
				code = 1
			}
		}
		return code
	}
	return runOne(c, stdout, stderr)
}

// result is the final JSON line of a workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs a single workload in this process and prints its metrics.
func runOne(c config, stdout, stderr io.Writer) int {
	w, _ := lookupWorkload(c.workload)
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	opt := options{seed: c.seed, seconds: c.seconds, workdir: c.workdir, golden: golden}
	if c.update {
		opt.updated = map[string]string{}
	}
	fmt.Fprintf(stdout, "# e2ebench workload=%s seed=%d seconds=%g trace=%d go=%s nproc=%d gomaxprocs=%d\n",
		w.name, c.seed, c.seconds, c.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	rep, err := runWorkload(w, opt, c.trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	for _, line := range rep.info {
		fmt.Fprintln(stdout, "#", line)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "FAIL:", p)
	}
	defs := endToEnd
	if c.trace == 1 {
		defs = perLayer
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := rep.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "FAIL: %s is %g\n", d.Name, v)
			res.Correct, v = false, 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "%s %s %s\n", d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
	}
	fmt.Fprintf(stdout, "# error_rate %g (%d failed of %d attempted)\n",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if c.update {
		if err := writeGolden(c.goldenPath, opt.updated); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// child runs one workload in a fresh process of this binary, so set-up
// time and peak memory are the workload's own. Its output is copied to
// stdout and stderr; the parsed final JSON line is returned.
func child(c config, name string, seed uint64, stdout, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", strconv.Itoa(c.trace),
		"-workdir", c.workdir, "-golden", c.goldenPath,
	}
	if c.update {
		args = append(args, "-update-golden")
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(stdout, &out)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return result{}, runErr
		}
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, runErr
}

// setupChildEnv marks a process coldSetup started: it sets its workload up
// once, prints "ready" and exits.
const setupChildEnv = "E2EBENCH_SETUP_CHILD"

// coldSetup times one set-up of the named workload in a fresh process of
// this binary, from starting the process to its report that the workload
// is ready for its first run. So set-up includes process start and package
// initialisation, and no field build or other in-process cache is warm: it
// is the set-up a user's program pays once, and a median over fresh
// processes stays well above timer and scheduler noise.
func coldSetup(name string, seed uint64, dir string) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	// A set-up takes milliseconds; the limit only keeps a hung child from
	// outliving the benchmark's own time limit.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10), "-workdir", dir)
	cmd.Env = append(os.Environ(), setupChildEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(start)
	_, _ = io.Copy(io.Discard, out) // the child prints nothing more; drain so Wait cannot block
	if err := cmd.Wait(); err != nil || readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up process: %q, %v, %v: %s", line, readErr, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return d, nil
}

// setupChild is the body of a process coldSetup started.
func setupChild(c config, stdout, stderr io.Writer) int {
	w, ok := lookupWorkload(c.workload)
	if !ok {
		fmt.Fprintln(stderr, "e2ebench: a set-up process needs one workload")
		return 2
	}
	var err error
	stop := func() {}
	if w.sweep != nil {
		err = w.sweep.sized().setUp(c.seed, c.workdir)
	} else {
		_, stop, err = w.serve.sized().setUp(c.workdir)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	stop()
	return 0
}

// runSets runs every named workload K times, each in its own process with
// consecutive seeds, and prints each metric's min, median and max with its
// spread: the interquartile range over the median. A spread wider than the
// metric's bound is flagged, since two sets of such runs could disagree by
// more than the benchmark tolerates.
func runSets(c config, names []string, stdout, stderr io.Writer) int {
	defs := endToEnd
	if c.trace == 1 {
		defs = perLayer
	}
	code := 0
	for _, name := range names {
		values := map[string][]float64{}
		for i := range c.sets {
			res, err := child(c, name, c.seed+uint64(i), io.Discard, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "e2ebench: %s seed %d: %v\n", name, c.seed+uint64(i), err)
				code = 1
				continue
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		fmt.Fprintf(stdout, "## %s: %d sets, seeds %d..%d\n", name, c.sets, c.seed, c.seed+uint64(c.sets)-1)
		fmt.Fprintf(stdout, "%-28s %12s %12s %12s %8s %6s\n", "metric", "min", "median", "max", "spread", "bound")
		for _, d := range defs {
			vs := values[d.Name]
			if len(vs) == 0 {
				continue
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			flag := ""
			if d.Bound > 0 && spread > d.Bound {
				flag = "  WIDER THAN BOUND"
			}
			lo, hi := vs[0], vs[0]
			for _, v := range vs {
				lo, hi = min(lo, v), max(hi, v)
			}
			fmt.Fprintf(stdout, "%-28s %12.6g %12.6g %12.6g %7.1f%% %5.0f%%%s\n",
				d.Name, lo, med, hi, 100*spread, 100*d.Bound, flag)
		}
	}
	return code
}
