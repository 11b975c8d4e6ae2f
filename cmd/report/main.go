// Command report merges one or more sweep store directories — typically
// the shards of one sweep run on different machines, or a single store
// written by deploy -store (deploy -figure writes one per figure) — and
// prints the per-(scheme, scenario, N) aggregates recomputed from the
// stored records.
//
// Usage:
//
//	report sweep/
//	report shard0/ shard1/ shard2/ shard3/
//	report -csv aggregates.csv shard0/ shard1/
//	report -traces curves.csv sweep/   # aggregated trace curves (deploy -trace stores)
//	report -runs sweep/             # per-run records instead of aggregates
//	report -watch sweep/            # live-refresh while another process writes
//	report -watch http://host:8080/v1/jobs/j000001/store   # remote server job
//
// A store argument may be an http(s) URL naming a deployment server's
// /v1/jobs/{id}/store endpoint instead of a local directory; the server
// serves the same manifest/records/timing files the directory would hold,
// so watching, merging and CSV export all work against a live remote job.
//
// With -watch, the stores are re-read every -interval and the aggregate
// table redrawn with a progress/ETA line (the ETA is extrapolated from
// the run-completion rate observed between polls). Watching exits once
// every store is complete, so it doubles as a wait-for-completion in
// scripts.
//
// Records are deduplicated by run key across directories, sorted into the
// unsharded sweep order, and aggregated exactly as a live Sweep.Run would:
// merging the shards of a sweep reproduces the unsharded aggregates bit
// for bit. The timing sidecars are read only for the informational
// "compute time" line — they never influence the aggregates.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"time"

	"mobisense"
	istore "mobisense/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, reads the stores and writes the
// tables and exports. It returns the exit code: 0 on success or -h, 1 on
// a read or write error, 2 on bad flags or no store arguments.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("report", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		csvPath    = flags.String("csv", "", "write the aggregate table as CSV to this path")
		tracesPath = flags.String("traces", "", "write the aggregated per-group trace curves (mean + CI per sample time) as CSV to this path; needs stores written with deploy -trace")
		showRuns   = flags.Bool("runs", false, "print one line per stored run instead of aggregates only")
		showFields = flags.Bool("fields", false, "dump the field specs embedded in the store manifests as JSON (rebuild any store's environments without the originating binary)")
		watch      = flags.Bool("watch", false, "poll the store directories and live-refresh the table until they complete")
		interval   = flags.Duration("interval", 2*time.Second, "poll interval for -watch")
	)
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: report [flags] store-dir-or-url [store-dir-or-url ...]\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	dirs := flags.Args()
	if len(dirs) == 0 {
		flags.Usage()
		return 2
	}

	if *watch {
		return watchStores(stdout, stderr, dirs, *interval, *showRuns)
	}

	data, err := mobisense.LoadStores(dirs...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	for _, st := range data.Stores {
		state := "complete"
		if !st.Complete {
			state = fmt.Sprintf("%d/%d runs", st.Records, st.TotalRuns)
		}
		shard := ""
		if st.ShardCount > 1 {
			shard = fmt.Sprintf(" shard %d/%d", st.ShardIndex, st.ShardCount)
		}
		fmt.Fprintf(stdout, "%s: %s store%s, %s, compute time %s\n",
			st.Dir, st.Kind, shard, state, st.Elapsed.Round(1e6))
	}
	fmt.Fprintf(stdout, "merged: %d runs, %d aggregate group(s)\n\n", len(data.Runs), len(data.Aggregates))

	if *showFields {
		printFields(stdout, data.Stores)
	}

	if *showRuns {
		printRuns(stdout, data.Runs)
	}

	printAggregateTable(stdout, data.Aggregates)

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(aggregatesCSV(data.Aggregates)), 0o644); err != nil {
			fmt.Fprintf(stderr, "write csv: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *csvPath)
	}
	if *tracesPath != "" {
		traces := mobisense.AggregateTraces(data.Runs)
		if len(traces) == 0 {
			fmt.Fprintln(stderr, "no trace series in the stores (write them with deploy -trace ... -store)")
			return 1
		}
		if err := os.WriteFile(*tracesPath, []byte(tracesCSV(traces)), 0o644); err != nil {
			fmt.Fprintf(stderr, "write traces csv: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *tracesPath)
	}
	return 0
}

// tracesCSV renders aggregated trace curves as CSV: one row per group and
// sample time, with mean and CI for every traced metric. The row order is
// the deterministic aggregation order, so sharded and unsharded exports
// of one sweep are byte-identical.
func tracesCSV(traces []mobisense.TraceAggregate) string {
	var sb strings.Builder
	sb.WriteString("scheme,scenario,n,axes,t,runs," +
		"coverage_mean,coverage_ci95,connected_mean,moving_mean," +
		"total_moved_mean,total_moved_ci95,max_moved_mean,max_moved_ci95\n")
	for _, tr := range traces {
		prefix := fmt.Sprintf("%s,%s,%d,%s", tr.Scheme,
			strings.ReplaceAll(tr.Scenario, ",", ";"), tr.N, istore.AxesString(tr.Axes))
		for _, p := range tr.Points {
			fmt.Fprintf(&sb, "%s,%s,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
				prefix, strconv.FormatFloat(p.Time, 'g', -1, 64), p.Runs,
				p.Coverage.Mean, p.Coverage.CI95, p.Connected.Mean, p.Moving.Mean,
				p.TotalMoved.Mean, p.TotalMoved.CI95, p.MaxMoved.Mean, p.MaxMoved.CI95)
		}
	}
	return sb.String()
}

// watchStores polls store directories another process is writing and
// live-refreshes the aggregate table with a progress/ETA line, using the
// same progress-snapshot helper the deployment server's SSE stream uses.
// It returns once every store is complete. A store that was read
// successfully and later disappears (directory deleted, server job
// pruned) is a hard error — silently waiting for it to reappear would
// hang scripts that use -watch as a wait-for-completion.
func watchStores(stdout, stderr io.Writer, dirs []string, interval time.Duration, showRuns bool) int {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	prevDone := -1
	prevTime := time.Now()
	seen := make(map[string]bool, len(dirs)) // dirs that held a store at least once
	for {
		done, total := 0, 0
		complete := true
		statusLines := make([]string, 0, len(dirs))
		// One LoadStores pass per poll supplies the per-store counts, the
		// runs and the aggregates together (parsing the records once).
		data, loadErr := mobisense.LoadStores(dirs...)
		if loadErr == nil {
			for _, st := range data.Stores {
				seen[st.Dir] = true
				done += st.Records
				total += st.TotalRuns
				if !st.Complete && st.Records < st.TotalRuns {
					complete = false
				}
				statusLines = append(statusLines, fmt.Sprintf("%s: %d/%d runs, compute time %s",
					st.Dir, st.Records, st.TotalRuns, st.Elapsed.Round(1e6)))
			}
		} else {
			// Stores still appearing (or torn mid-write): fall back to the
			// cheap per-directory progress probe until they merge cleanly.
			complete = false
			for _, dir := range dirs {
				ps, err := mobisense.ReadStoreProgress(dir)
				if err != nil {
					if seen[dir] && errors.Is(err, fs.ErrNotExist) {
						fmt.Fprintf(stderr, "report: store %s disappeared mid-watch: %v\n", dir, err)
						return 1
					}
					statusLines = append(statusLines, fmt.Sprintf("%s: waiting for store...", dir))
					continue
				}
				seen[dir] = true
				done += ps.Done
				total += ps.Total
				statusLines = append(statusLines, fmt.Sprintf("%s: %d/%d runs, compute time %s",
					dir, ps.Done, ps.Total, ps.Elapsed.Round(1e6)))
			}
		}

		// The ETA extrapolates from the record-count delta between polls —
		// the writer's actual wall-clock rate, whatever its worker count.
		rate := 0
		elapsed := time.Since(prevTime)
		if prevDone >= 0 && done > prevDone {
			rate = done - prevDone
		}
		snap := mobisense.SnapshotProgress(done, total, rate, elapsed)
		prevDone, prevTime = done, time.Now()

		// Redraw from the top of the terminal.
		fmt.Fprint(stdout, "\033[H\033[2J")
		for _, line := range statusLines {
			fmt.Fprintln(stdout, line)
		}
		switch {
		case complete:
			fmt.Fprintf(stdout, "total: %d/%d runs, complete\n\n", done, total)
		case snap.ETA > 0:
			fmt.Fprintf(stdout, "total: %d/%d runs, ETA %s\n\n", done, total, snap.ETA.Round(time.Second))
		default:
			fmt.Fprintf(stdout, "total: %d/%d runs\n\n", done, total)
		}

		if loadErr != nil {
			// Mid-write inconsistencies resolve on the next poll.
			fmt.Fprintf(stdout, "(stores not mergeable yet: %v)\n", loadErr)
		} else {
			if showRuns {
				printRuns(stdout, data.Runs)
			}
			printAggregateTable(stdout, data.Aggregates)
		}
		if complete && loadErr == nil {
			return 0
		}
		time.Sleep(interval)
	}
}

// printFields dumps the field specs embedded in the stores' manifests —
// the geometry every run deployed into, reproducible with deploy -field
// or the serve API on any machine. Stores written before the field-spec
// refactor carry none.
func printFields(stdout io.Writer, stores []mobisense.StoreInfo) {
	printed := map[string]bool{}
	for _, st := range stores {
		for _, fe := range st.Fields {
			data, err := json.MarshalIndent(fe.Spec, "", "  ")
			if err != nil {
				continue
			}
			if printed[string(data)] {
				continue // shards repeat the same specs
			}
			printed[string(data)] = true
			fmt.Fprintf(stdout, "field %s:\n%s\n", scenarioLabel(fe.Scenario), data)
		}
	}
	if len(printed) == 0 {
		fmt.Fprintln(stdout, "no embedded field specs (store predates the field-spec format)")
	}
	fmt.Fprintln(stdout)
}

func scenarioLabel(s string) string {
	if s == "" {
		return "(custom field)"
	}
	return s
}

// axisNames collects the union of axis names across the aggregates in
// first-seen order: the merged table gets one column per axis, and stores
// without axes get none (pre-axis output stays byte-identical).
func axisNames(aggs []mobisense.Aggregate) []string {
	var names []string
	seen := map[string]bool{}
	for _, a := range aggs {
		for _, ax := range a.Axes {
			if !seen[ax.Name] {
				seen[ax.Name] = true
				names = append(names, ax.Name)
			}
		}
	}
	return names
}

// axisCell renders one aggregate's value on the named axis ("" when the
// aggregate does not vary that axis).
func axisCell(a mobisense.Aggregate, name string) string {
	for _, ax := range a.Axes {
		if ax.Name == name {
			return ax.ValueString()
		}
	}
	return ""
}

// printRuns prints one line per stored run.
func printRuns(stdout io.Writer, runs []mobisense.BatchResult) {
	for _, br := range runs {
		sp := br.Spec
		axes := ""
		for _, ax := range sp.Axes {
			axes += fmt.Sprintf(" %s=%s", ax.Name, ax.ValueString())
		}
		if br.Err != nil {
			fmt.Fprintf(stdout, "%5d  %-8s %-16s N=%-4d r%-3d%s FAILED: %v\n",
				sp.Index, sp.Scheme, scenarioLabel(sp.Scenario), sp.N, sp.Repeat, axes, br.Err)
			continue
		}
		fmt.Fprintf(stdout, "%5d  %-8s %-16s N=%-4d r%-3d%s cov=%.3f dist=%.1f connected=%v\n",
			sp.Index, sp.Scheme, scenarioLabel(sp.Scenario), sp.N, sp.Repeat, axes,
			br.Result.Coverage, br.Result.AvgMoveDistance, br.Result.Connected)
	}
	fmt.Fprintln(stdout)
}

// anyConvergence reports whether any aggregate carries trace-derived
// convergence metrics. They gate the extra table/CSV columns, so
// untraced stores keep their exact pre-trace output.
func anyConvergence(aggs []mobisense.Aggregate) bool {
	for _, a := range aggs {
		if a.Convergence != nil {
			return true
		}
	}
	return false
}

// printAggregateTable renders the aggregates as an aligned text table,
// with one extra column per generalized axis the stores swept and —
// for traced stores — the trace-derived convergence summaries.
func printAggregateTable(stdout io.Writer, aggs []mobisense.Aggregate) {
	axes := axisNames(aggs)
	conv := anyConvergence(aggs)
	header := append([]string{"scheme", "scenario", "N"}, axes...)
	header = append(header, "runs", "errs",
		"coverage", "±95%", "distance", "±95%", "messages", "conv_time", "connected")
	if conv {
		header = append(header, "t90", "±95%", "settle", "±95%")
	}
	lines := [][]string{header}
	for _, a := range aggs {
		line := []string{
			string(a.Scheme),
			scenarioLabel(a.Scenario),
			fmt.Sprintf("%d", a.N),
		}
		for _, name := range axes {
			line = append(line, axisCell(a, name))
		}
		line = append(line,
			fmt.Sprintf("%d", a.Runs),
			fmt.Sprintf("%d", a.Errors),
			fmt.Sprintf("%.4f", a.Coverage.Mean),
			fmt.Sprintf("%.4f", a.Coverage.CI95),
			fmt.Sprintf("%.1f", a.AvgMoveDistance.Mean),
			fmt.Sprintf("%.1f", a.AvgMoveDistance.CI95),
			fmt.Sprintf("%.0f", a.Messages.Mean),
			fmt.Sprintf("%.0f", a.ConvergenceTime.Mean),
			fmt.Sprintf("%.0f%%", 100*a.ConnectedFraction),
		)
		if conv {
			if c := a.Convergence; c != nil {
				line = append(line,
					fmt.Sprintf("%.0f", c.TimeTo90Coverage.Mean),
					fmt.Sprintf("%.0f", c.TimeTo90Coverage.CI95),
					fmt.Sprintf("%.0f", c.SettlingTime.Mean),
					fmt.Sprintf("%.0f", c.SettlingTime.CI95),
				)
			} else {
				line = append(line, "", "", "", "")
			}
		}
		lines = append(lines, line)
	}
	widths := make([]int, len(header))
	for _, line := range lines {
		for i, cell := range line {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, line := range lines {
		var sb strings.Builder
		for i, cell := range line {
			if i > 0 {
				sb.WriteString("  ")
			}
			pad := strings.Repeat(" ", widths[i]-len(cell))
			if i < 2 { // left-align the name columns
				sb.WriteString(cell + pad)
			} else {
				sb.WriteString(pad + cell)
			}
		}
		fmt.Fprintln(stdout, sb.String())
	}
}

// aggregatesCSV renders the aggregates as a CSV document, inserting one
// "axis_<name>" column per swept axis after the n column. Axis-free
// stores produce the exact pre-axis header and rows, and untraced stores
// the exact pre-convergence ones — the extra convergence columns appear
// only when some aggregate carries trace-derived metrics.
func aggregatesCSV(aggs []mobisense.Aggregate) string {
	axes := axisNames(aggs)
	conv := anyConvergence(aggs)
	var sb strings.Builder
	sb.WriteString("scheme,scenario,n")
	for _, name := range axes {
		sb.WriteString(",axis_" + strings.ReplaceAll(name, ",", ";"))
	}
	sb.WriteString(",runs,errors,skipped," +
		"coverage_mean,coverage_ci95,coverage_min,coverage_max," +
		"coverage2_mean,distance_mean,distance_ci95," +
		"messages_mean,convergence_mean,connected_fraction")
	if conv {
		sb.WriteString(",conv_runs,t90_mean,t90_ci95,t99_mean,t99_ci95," +
			"settle_mean,settle_ci95,settle_total_moved_mean,settle_max_moved_mean," +
			"connected_runs,tconn_mean,tconn_ci95")
	}
	sb.WriteString("\n")
	for _, a := range aggs {
		fmt.Fprintf(&sb, "%s,%s,%d", a.Scheme, strings.ReplaceAll(a.Scenario, ",", ";"), a.N)
		for _, name := range axes {
			sb.WriteString("," + axisCell(a, name))
		}
		fmt.Fprintf(&sb, ",%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f",
			a.Runs, a.Errors, a.Skipped,
			a.Coverage.Mean, a.Coverage.CI95, a.Coverage.Min, a.Coverage.Max,
			a.Coverage2.Mean, a.AvgMoveDistance.Mean, a.AvgMoveDistance.CI95,
			a.Messages.Mean, a.ConvergenceTime.Mean, a.ConnectedFraction)
		if conv {
			if c := a.Convergence; c != nil {
				fmt.Fprintf(&sb, ",%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%.6f,%.6f",
					c.Runs,
					c.TimeTo90Coverage.Mean, c.TimeTo90Coverage.CI95,
					c.TimeTo99Coverage.Mean, c.TimeTo99Coverage.CI95,
					c.SettlingTime.Mean, c.SettlingTime.CI95,
					c.TotalMovedAtSettle.Mean, c.MaxMovedAtSettle.Mean,
					c.ConnectedRuns,
					c.TimeToConnectivity.Mean, c.TimeToConnectivity.CI95)
			} else {
				sb.WriteString(strings.Repeat(",", 12))
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
