// Command deploy runs sensor deployments and reports their metrics, an
// ASCII layout map, and optionally a CSV of final positions. Schemes and
// scenarios resolve through the mobisense registries, and multi-run
// invocations fan out across cores via the batch runner.
//
// Sweeps can stream every finished run to an on-disk store (-store),
// survive Ctrl-C (finished runs persist; re-run with -resume to continue),
// stop deterministically after a number of runs (-max-runs), and split
// across machines (-shard i/n, one store per shard; merge the stores with
// cmd/report).
//
// Examples:
//
//	deploy -scheme floor
//	deploy -scheme cpvf -scenario two-obstacles -n 240 -rc 60 -rs 40
//	deploy -scheme vor -rc 240 -rs 60 -map=false
//	deploy -scheme floor -scenario random-obstacles -field-seed 7 -csv layout.csv
//	deploy -scheme floor -scenario disaster -runs 30 -workers 8
//	deploy -scheme floor -scenario random -runs 300 -store sweep/
//	deploy -scheme floor -scenario random -runs 300 -store sweep/ -resume
//	deploy -scheme floor -scenario random -runs 300 -store shard0/ -shard 0/2
//
// Generalized parameter axes sweep any built-in knob (rc, rs, speed,
// cpvf.delta, cpvf.osc, floor.ttl, floor.ttl_frac, the field axes) as a
// cross-product; -axis repeats for multiple dimensions and -fixed-seed
// pairs every axis point on one initial deployment (the paper's
// parameter-study protocol). -field-seed applies to single runs only:
//
//	deploy -scheme floor -axis rc=30,45,60 -runs 10
//	deploy -scheme cpvf -axis rc=40,60 -axis speed=1,2 -fixed-seed
//	deploy -scheme floor -n 120 -fixed-seed -axis floor.ttl_frac=0.1,0.4
//
// Custom environments load from declarative field-spec JSON files
// (-field): bounds, polygonal obstacles, the base-station reference
// point, and optionally a seeded random-obstacle generator. The store
// manifest embeds the spec, so the sweep reproduces anywhere:
//
//	deploy -scheme floor -field warehouse.json -runs 20 -store sweep/
//
// Per-tick run telemetry (-trace, stride in simulated seconds) samples
// coverage, connectivity and movement as the deployment unfolds: single
// runs print the series, sweeps persist it in store records for the
// serve dashboard's trace chart:
//
//	deploy -scheme floor -trace 25
//	deploy -scheme floor -trace 25 -trace-csv series.csv
//	deploy -scheme floor -trace 25 -trace-layouts -runs 10 -store sweep/
//	deploy -scheme floor -runs 30 -store sweep/ -trace 25
//
// Traced runs also report convergence metrics (time to 90%/99% of final
// coverage, time to stable connectivity, settling time and the movement
// cost at convergence); -trace-layouts additionally snapshots the sensor
// layout at every sample, which powers the serve dashboard's replay
// animation.
//
// The paper's figures (Figures 3 and 8–13, Table 1) are registered
// sweeps: -figure runs them at paper scale and prints each as a table of
// one row per sweep point. They take the sweep options above (-seed,
// -workers, -store, -resume, -shard, -max-runs); each figure's store goes
// under <store>/<figure>, and -csv writes every row with a leading figure
// column:
//
//	deploy -figure fig9,fig10 -workers 8
//	deploy -figure all -store results/ -csv results/figures.csv
//	deploy -figure fig13 -store results/ -resume
//	deploy -figure fig13 -store shard1/ -shard 1/4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"mobisense"
	"mobisense/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// figureFlags are the flags that apply to -figure: the figure defines
// its own sweep, so every other flag would be silently ignored.
var figureFlags = map[string]bool{
	"figure": true, "seed": true, "workers": true, "store": true, "store-layouts": true,
	"resume": true, "shard": true, "max-runs": true, "csv": true,
}

// run is the command: it parses args, runs the deployment, sweep or
// figures and writes the reports. It returns the exit code: 0 on success
// or -h (and when -max-runs stops a sweep), 1 on a run or write failure,
// 2 on bad flags or a bad request and 130 on Ctrl-C.
//
// The flags that describe the work fill the serve API's SweepRequest,
// which validates and expands them exactly as POST /v1/runs and
// /v1/sweeps do, so a sweep run here writes the store the service writes
// for the same request. The remaining flags say how to execute it.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("deploy", flag.ContinueOnError)
	flags.SetOutput(stderr)
	schemeNames := make([]string, 0, 8)
	for _, s := range mobisense.RegisteredSchemes() {
		schemeNames = append(schemeNames, string(s))
	}
	var (
		scheme    = flags.String("scheme", "floor", "deployment scheme: "+strings.Join(schemeNames, ", "))
		scenario  = flags.String("scenario", "", "scenario (default free): "+strings.Join(mobisense.ScenarioNames(), ", "))
		fieldFile = flags.String("field", "", "field-spec JSON file defining a custom environment (instead of -scenario)")
		fieldSeed = flags.Uint64("field-seed", 1, "seed for seeded scenarios/specs in single runs; sweeps (-runs > 1) derive fields from -seed")
		n         = flags.Int("n", 240, "number of sensors")
		rc        = flags.Float64("rc", 60, "communication range (m)")
		rs        = flags.Float64("rs", 40, "sensing range (m)")
		speed     = flags.Float64("speed", 2, "maximum speed (m/s)")
		duration  = flags.Float64("duration", 750, "simulated time (s)")
		seed      = flags.Uint64("seed", 1, "run seed (base seed for -runs > 1)")
		runs      = flags.Int("runs", 1, "number of repeated runs with derived seeds")
		workers   = flags.Int("workers", 0, "worker-pool size for sweeps and -figure (0 = GOMAXPROCS)")
		uniform   = flags.Bool("uniform", false, "uniform initial distribution instead of clustered")
		osc       = flags.String("oscillation", "", "CPVF oscillation avoidance: none, one-step, two-step (empty = none)")
		delta     = flags.Float64("delta", 0, "CPVF oscillation avoidance factor δ (0 = the scheme's default, 4)")
		ttl       = flags.Int("ttl", 0, "FLOOR invitation TTL in hops (0 = 0.2*N)")
		showMap   = flags.Bool("map", true, "print an ASCII layout map (single run only)")
		csvPath   = flags.String("csv", "", "write final positions CSV to this path (single run), or every -figure row")
		storeDir  = flags.String("store", "", "stream finished runs to this store directory (sweeps; -figure stores each figure under <store>/<figure>)")
		layouts   = flags.Bool("store-layouts", false, "persist each run's initial and final sensor layouts in its store record (requires -store)")
		trace     = flags.Float64("trace", 0, "sample per-tick telemetry every this many simulated seconds (0 = off); single runs print the series, sweeps persist it in -store records")
		traceLay  = flags.Bool("trace-layouts", false, "capture the full sensor layout in every trace sample for replay animation (requires -trace)")
		traceLayN = flags.Int("trace-layout-stride", 0, "capture layouts only every Nth trace sample (0 or 1 = every; requires -trace-layouts)")
		traceCSV  = flags.String("trace-csv", "", "write the run's trace series as CSV to this path (single run only, requires -trace)")
		resume    = flags.Bool("resume", false, "continue an interrupted sweep in the -store directory")
		shardSpec = flags.String("shard", "", "run only shard i of n, as \"i/n\" (requires -store; merge with cmd/report)")
		maxRuns   = flags.Int("max-runs", 0, "stop dispatching after this many completed runs (0 = all); finished runs stay in the store")
		fixedSeed = flags.Bool("fixed-seed", false, "give every sweep run the -seed verbatim instead of derived seeds (paired axis points)")
		figure    = flags.String("figure", "", "run the paper's figures as sweeps: "+strings.Join(experiments.Names(), ",")+" (comma-separated) or all")
	)
	var axes []mobisense.AxisSpec
	axisNames := make([]string, 0, 16)
	for _, ax := range mobisense.Axes() {
		axisNames = append(axisNames, ax.Name)
	}
	flags.Func("axis", "sweep a built-in axis as \"name=v1,v2,...\" ("+strings.Join(axisNames, ", ")+"); string-valued axes take their values by name, e.g. cpvf.osc=none,two-step; repeatable",
		func(spec string) error {
			ax, err := mobisense.ParseAxis(spec)
			if err == nil {
				axes = append(axes, ax)
			}
			return err
		})
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var figures []experiments.Figure
	if *figure != "" {
		names := experiments.Names()
		if *figure != "all" {
			names = strings.Split(*figure, ",")
		}
		for _, name := range names {
			f, ok := experiments.Lookup(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(stderr, "unknown figure %q (have %s or all)\n", name, strings.Join(experiments.Names(), ", "))
				return 2
			}
			figures = append(figures, f)
		}
	}
	bad, fieldSeedSet := "", false
	flags.Visit(func(f *flag.Flag) {
		if figures != nil && !figureFlags[f.Name] {
			bad = f.Name
		}
		fieldSeedSet = fieldSeedSet || f.Name == "field-seed"
	})
	if bad != "" {
		fmt.Fprintf(stderr, "-figure defines its own sweep: -%s does not apply\n", bad)
		return 2
	}
	shard, err := mobisense.ParseShard(*shardSpec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sweeping := *runs > 1 || len(axes) > 0
	for _, rule := range []struct {
		broken bool
		msg    string
	}{
		{*resume && *storeDir == "", "-resume needs -store: there is nothing to resume from"},
		{fieldSeedSet && sweeping, "-field-seed applies to single runs: a sweep derives each repeat's field from -seed"},
		{shard.Count > 1 && *storeDir == "", "-shard needs -store: a shard's slice of the aggregates is useless unpersisted"},
		{*layouts && *storeDir == "", "-store-layouts needs -store: layouts persist in store records"},
		{*trace > 0 && sweeping && *storeDir == "", "-trace in a sweep needs -store: the series persist in store records"},
		{*traceCSV != "" && *trace == 0, "-trace-csv needs -trace: there is no series to write"},
		{*traceCSV != "" && sweeping, "-trace-csv is single-run only; sweeps export aggregated curves via report -traces"},
		{figures == nil && !sweeping && (*storeDir != "" || shard.Count > 1), "-store and -shard need a sweep: set -runs > 1, add -axis or pick a -figure"},
	} {
		if rule.broken {
			fmt.Fprintln(stderr, rule.msg)
			return 2
		}
	}

	// Ctrl-C cancels the sweep; every finished run is kept (and persisted
	// when a store is attached). -max-runs cancels dispatch once enough
	// runs completed — the deterministic stand-in for Ctrl-C in scripts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	capCtx, capStop := context.WithCancel(ctx)
	defer capStop()
	completed := 0
	opts := mobisense.BatchOptions{Workers: *workers, Shard: shard}
	opts.OnProgress = func(done, total int) {
		fmt.Fprintf(stderr, "\r%d/%d runs", done, total)
		if done == total {
			fmt.Fprintln(stderr)
		}
		completed++
		if *maxRuns > 0 && completed >= *maxRuns {
			capStop()
		}
	}
	if figures != nil {
		csv := []byte(experiments.CSVHeader)
		for _, f := range figures {
			sweep := f.Full
			sweep.Seed = *seed
			o, dir := opts, ""
			if *storeDir != "" {
				dir = filepath.Join(*storeDir, f.Name)
				o.Store = &mobisense.Store{Dir: dir, Resume: *resume, Layouts: *layouts || f.Layouts}
			}
			sr, err := sweep.Run(capCtx, o)
			if err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintf(stderr, "%s: %v\n", f.Name, err)
				return 1
			}
			if code := ended(ctx, sr, err, dir, *maxRuns, stderr); code >= 0 {
				return code
			}
			if shard.Count > 1 {
				fmt.Fprintf(stdout, "%s: shard %d/%d stored in %s; merge the shard stores with cmd/report\n\n",
					f.Name, shard.Index, shard.Count, dir)
				continue
			}
			rows, err := f.Rows(sr.Runs)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintln(stdout, f.Markdown(rows))
			csv = experiments.AppendCSV(csv, f.Name, rows)
		}
		if *csvPath != "" {
			if err := os.WriteFile(*csvPath, csv, 0o644); err != nil {
				fmt.Fprintf(stderr, "write csv: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", *csvPath)
		}
		return 0
	}

	req := mobisense.SweepRequest{
		RunRequest: mobisense.RunRequest{
			Scheme: *scheme, Scenario: *scenario,
			N: *n, Rc: *rc, Rs: *rs, Speed: *speed, Duration: *duration, Seed: *seed, Uniform: *uniform,
			StoreLayouts: *layouts, Trace: *trace, TraceLayouts: *traceLay, TraceLayoutStride: *traceLayN,
		},
		Axes:      axes,
		FixedSeed: *fixedSeed,
		Repeats:   *runs,
	}
	if *fieldFile != "" {
		spec, err := mobisense.LoadFieldSpecFile(*fieldFile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		req.Field = &spec
	}
	if *osc != "" || *delta != 0 {
		req.CPVF = &mobisense.CPVFOptions{Oscillation: *osc, Delta: *delta}
	}
	if *ttl != 0 {
		req.Floor = &mobisense.FloorOptions{TTL: *ttl}
	}

	if !sweeping {
		req.FieldSeed = *fieldSeed
		cfg, err := req.Config()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		out, err := mobisense.RunBatch(ctx, []mobisense.Config{cfg}, mobisense.BatchOptions{Workers: 1})
		if err == nil {
			err = out[0].Err
		}
		if err != nil {
			fmt.Fprintf(stderr, "run: %v\n", err)
			return 1
		}
		return printSingle(stdout, stderr, cfg, out[0].Result, *showMap, *csvPath, *traceCSV)
	}
	sweep, err := req.Sweep()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *storeDir != "" {
		opts.Store = &mobisense.Store{Dir: *storeDir, Resume: *resume, Layouts: *layouts, Trace: *trace > 0}
	}
	sr, err := sweep.Run(capCtx, opts)
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 1
	}
	printAggregates(stdout, sr)
	return max(ended(ctx, sr, err, *storeDir, *maxRuns, stderr), 0)
}

// ended says on stderr how a sweep that did not finish cleanly ended: cut
// short by Ctrl-C or -max-runs (err is the context's), or with failed
// runs. It returns the exit code, or -1 when every run finished.
func ended(ctx context.Context, sr mobisense.SweepResult, err error, store string, maxRuns int, stderr io.Writer) int {
	if err != nil {
		done := 0
		for _, br := range sr.Runs {
			if !errors.Is(br.Err, context.Canceled) {
				done++
			}
		}
		fmt.Fprintf(stderr, "\ninterrupted after %d/%d runs\n", done, len(sr.Runs))
		if store != "" {
			fmt.Fprintf(stderr, "finished runs are stored in %s (re-run with -resume to continue)\n", store)
		}
		if maxRuns > 0 && ctx.Err() == nil {
			return 0 // the -max-runs cap, not a Ctrl-C
		}
		return 130
	}
	// Surface every distinct failure cause, not just the first.
	counts := map[string]int{}
	var order []string
	for _, br := range sr.Runs {
		if br.Err != nil {
			msg := br.Err.Error()
			if counts[msg] == 0 {
				order = append(order, msg)
			}
			counts[msg]++
		}
	}
	for _, msg := range order {
		fmt.Fprintf(stderr, "%d run(s) failed: %s\n", counts[msg], msg)
	}
	if len(order) > 0 {
		return 1
	}
	return -1
}

func printSingle(stdout, stderr io.Writer, cfg mobisense.Config, res mobisense.Result, showMap bool, csvPath, traceCSV string) int {
	fmt.Fprintf(stdout, "scheme           %s\n", res.Scheme)
	fmt.Fprintf(stdout, "coverage         %.1f%%\n", 100*res.Coverage)
	fmt.Fprintf(stdout, "avg distance     %.1f m\n", res.AvgMoveDistance)
	fmt.Fprintf(stdout, "connected        %v\n", res.Connected)
	if res.Messages > 0 {
		fmt.Fprintf(stdout, "messages         %d (%.1f per sensor per second)\n",
			res.Messages, float64(res.Messages)/float64(cfg.N)/cfg.Duration)
	}
	if res.ConvergenceTime > 0 {
		fmt.Fprintf(stdout, "last movement    %.0f s\n", res.ConvergenceTime)
	}
	if res.Placements != nil {
		fmt.Fprintf(stdout, "floor placements flg=%d blg=%d iflg=%d\n",
			res.Placements["flg"], res.Placements["blg"], res.Placements["iflg"])
	}
	if res.IncorrectVoronoiCells > 0 {
		fmt.Fprintf(stdout, "incorrect cells  %d\n", res.IncorrectVoronoiCells)
	}
	fmt.Fprintf(stdout, "wall time        %s\n", res.Elapsed.Round(1e6))

	if cfg.Trace != nil && len(res.Trace) == 0 {
		// The Voronoi/OPT baselines compute layouts outside the event loop;
		// say so instead of printing an empty table.
		fmt.Fprintf(stdout, "\nscheme %s yields no trace (its layout is computed outside the event loop)\n", res.Scheme)
	}
	if len(res.Trace) > 0 {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "     t  coverage  connected  moving  total moved  max moved")
		for _, s := range res.Trace {
			fmt.Fprintf(stdout, "%6.0f    %5.1f%%  %9d  %6d  %9.1f m  %7.1f m\n",
				s.Time, 100*s.Coverage, s.Connected, s.Moving, s.TotalMoved, s.MaxMoved)
		}
	}
	if c := res.Convergence; c != nil {
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "t90 coverage     %.0f s\n", c.TimeTo90Coverage)
		fmt.Fprintf(stdout, "t99 coverage     %.0f s\n", c.TimeTo99Coverage)
		if c.TimeToConnectivity >= 0 {
			fmt.Fprintf(stdout, "connectivity     %.0f s\n", c.TimeToConnectivity)
		} else {
			fmt.Fprintln(stdout, "connectivity     never (final layout not fully connected)")
		}
		fmt.Fprintf(stdout, "settled          %.0f s (total %.1f m, max %.1f m)\n",
			c.SettlingTime, c.TotalMovedAtSettle, c.MaxMovedAtSettle)
	}

	if showMap {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.ASCIIMap(72))
	}
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(res.PositionsCSV()), 0o644); err != nil {
			fmt.Fprintf(stderr, "write csv: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", csvPath)
	}
	if traceCSV != "" {
		if err := os.WriteFile(traceCSV, []byte(traceSeriesCSV(res.Trace)), 0o644); err != nil {
			fmt.Fprintf(stderr, "write trace csv: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", traceCSV)
	}
	return 0
}

// traceSeriesCSV renders a single run's telemetry series as CSV.
func traceSeriesCSV(trace []mobisense.TraceSample) string {
	var sb strings.Builder
	sb.WriteString("t,coverage,connected,alive,moving,total_moved,max_moved\n")
	for _, s := range trace {
		fmt.Fprintf(&sb, "%s,%s,%d,%d,%d,%s,%s\n",
			strconv.FormatFloat(s.Time, 'g', -1, 64),
			strconv.FormatFloat(s.Coverage, 'f', 6, 64),
			s.Connected, s.Alive, s.Moving,
			strconv.FormatFloat(s.TotalMoved, 'f', 6, 64),
			strconv.FormatFloat(s.MaxMoved, 'f', 6, 64))
	}
	return sb.String()
}

func printAggregates(stdout io.Writer, sr mobisense.SweepResult) {
	for _, a := range sr.Aggregates {
		scen := a.Scenario
		if scen == "" {
			scen = "(custom field)"
		}
		fmt.Fprintf(stdout, "%s on %s, N=%d", a.Scheme, scen, a.N)
		for _, ax := range a.Axes {
			fmt.Fprintf(stdout, ", %s=%s", ax.Name, ax.ValueString())
		}
		fmt.Fprintf(stdout, ": %d runs", a.Runs)
		if a.Errors > 0 {
			fmt.Fprintf(stdout, " (%d failed)", a.Errors)
		}
		if a.Skipped > 0 {
			fmt.Fprintf(stdout, " (%d not executed)", a.Skipped)
		}
		fmt.Fprintln(stdout)
		if a.Runs == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  coverage       %.1f%% ± %.1f  (min %.1f%%, max %.1f%%)\n",
			100*a.Coverage.Mean, 100*a.Coverage.CI95, 100*a.Coverage.Min, 100*a.Coverage.Max)
		fmt.Fprintf(stdout, "  avg distance   %.1f m ± %.1f\n", a.AvgMoveDistance.Mean, a.AvgMoveDistance.CI95)
		if a.Messages.Mean > 0 {
			fmt.Fprintf(stdout, "  messages       %.0f ± %.0f\n", a.Messages.Mean, a.Messages.CI95)
		}
		fmt.Fprintf(stdout, "  connected      %.0f%% of runs\n", 100*a.ConnectedFraction)
	}
}
