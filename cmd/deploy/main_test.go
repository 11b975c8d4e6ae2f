package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobisense"
	"mobisense/internal/experiments"
	"mobisense/internal/server"
)

// deploy runs the command in-process and fails the test unless it exits
// with want.
func deploy(t *testing.T, want int, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != want {
		t.Fatalf("deploy %s: exit code %d, want %d; stderr:\n%s", strings.Join(args, " "), code, want, errb.String())
	}
	return out.String(), errb.String()
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunFlags: -h exits 0; a bad flag, an unknown figure, a figure with
// a flag its sweep defines, -resume without -store and a request the
// serve API would answer 400 exit 2 with the cause on stderr, before any
// run.
func TestRunFlags(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, "-figure"},
		{"bad flag", []string{"-no-such-flag"}, 2, "no-such-flag"},
		{"unknown figure", []string{"-figure", "fig3,fig99"}, 2, `unknown figure "fig99"`},
		{"figure with scheme", []string{"-figure", "fig3", "-scheme", "cpvf"}, 2, "-scheme does not apply"},
		{"figure with n", []string{"-figure", "all", "-n", "20"}, 2, "-n does not apply"},
		{"figure with axis", []string{"-axis", "rc=30,60", "-figure", "fig9"}, 2, "-axis does not apply"},
		{"resume without store", []string{"-resume", "-runs", "4"}, 2, "-resume needs -store"},
		{"negative n", []string{"-n", "-5"}, 2, "n must be a finite number >= 0"},
		{"NaN rc", []string{"-rc", "NaN", "-runs", "2"}, 2, "rc must be a finite number >= 0"},
		{"unknown scenario", []string{"-scenario", "nowhere"}, 2, `unknown scenario "nowhere"`},
		{"scenario name as field", []string{"-field", "two-obstacles"}, 2, "field spec"},
		{"trace layouts without trace", []string{"-trace-layouts"}, 2, "trace_layouts requires a trace stride"},
		{"duplicate axis", []string{"-axis", "rc=30", "-axis", "rc=60"}, 2, `duplicate axis "rc"`},
		{"negative axis value", []string{"-axis", "floor.ttl=-5,0"}, 2, `axis "floor.ttl" values must be finite numbers >= 0`},
		{"field seed in a sweep", []string{"-field-seed", "2", "-runs", "2"}, 2, "-field-seed applies to single runs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit code %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) || stdout.Len() != 0 {
				t.Errorf("stdout %q, stderr %q; want stderr to contain %q", stdout.String(), stderr.String(), tc.stderr)
			}
		})
	}
}

// TestFigureStoreResumesAndShards: a figure stopped by -max-runs resumes
// to the rows of an uninterrupted run, a resume of a finished store runs
// nothing, and the figure's shard stores merge to the same rows. fig11's
// rows need every run's layouts, so its stores keep them.
func TestFigureStoreResumesAndShards(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	deploy(t, 0, "-figure", "fig11", "-csv", path("live.csv"))

	out, _ := deploy(t, 0, "-figure", "fig11", "-workers", "1", "-store", path("st"), "-max-runs", "2")
	if strings.Contains(out, "| floor |") {
		t.Errorf("an interrupted figure printed rows:\n%s", out)
	}
	deploy(t, 0, "-figure", "fig11", "-store", path("st"), "-resume", "-csv", path("resumed.csv"))
	_, stderr := deploy(t, 0, "-figure", "fig11", "-store", path("st"), "-resume", "-csv", path("replayed.csv"))
	if strings.Contains(stderr, "runs") {
		t.Errorf("resuming a finished store executed runs: %q", stderr)
	}
	live := readFile(t, path("live.csv"))
	if !strings.HasPrefix(live, experiments.CSVHeader) || !strings.Contains(live, "fig11,floor,free,240,,hungarian,1,") {
		t.Errorf("figure CSV lacks the header or the Hungarian row:\n%s", live)
	}
	for _, name := range []string{"resumed.csv", "replayed.csv"} {
		if got := readFile(t, path(name)); got != live {
			t.Errorf("%s differs from the live run:\n%s\nwant:\n%s", name, got, live)
		}
	}

	deploy(t, 0, "-figure", "fig11", "-store", path("s0"), "-shard", "0/2")
	deploy(t, 0, "-figure", "fig11", "-store", path("s1"), "-shard", "1/2")
	merged, err := mobisense.LoadStores(path("s0/fig11"), path("s1/fig11"))
	if err != nil {
		t.Fatal(err)
	}
	fig, _ := experiments.Lookup("fig11")
	rows, err := fig.Rows(merged.Runs)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(experiments.AppendCSV([]byte(experiments.CSVHeader), "fig11", rows)); got != live {
		t.Errorf("merged shard rows differ from the live run:\n%s\nwant:\n%s", got, live)
	}
}

// A small FLOOR sweep over two built-in axes.
var axisSweep = []string{"-scheme", "floor", "-scenario", "free", "-n", "20", "-duration", "60",
	"-runs", "2", "-workers", "2", "-seed", "9", "-axis", "rc=50,60", "-axis", "floor.ttl=4,6"}

// TestAxisSweepShardsMerge: an rc × floor.ttl sweep run as two shards
// merges to the unsharded aggregates, one group per axis point, and its
// records carry the axis values.
func TestAxisSweepShardsMerge(t *testing.T) {
	dir := t.TempDir()
	stores := []string{filepath.Join(dir, "full"), filepath.Join(dir, "s0"), filepath.Join(dir, "s1")}
	deploy(t, 0, append(axisSweep, "-store", stores[0])...)
	deploy(t, 0, append(axisSweep, "-store", stores[1], "-shard", "0/2")...)
	deploy(t, 0, append(axisSweep, "-store", stores[2], "-shard", "1/2")...)
	if recs := readFile(t, filepath.Join(stores[0], "records.jsonl")); !strings.Contains(recs, `"axes":[{"name":"rc"`) {
		t.Errorf("records lack the rc axis:\n%s", recs)
	}
	full, err := mobisense.LoadStores(stores[0])
	if err != nil {
		t.Fatal(err)
	}
	merged, err := mobisense.LoadStores(stores[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Aggregates) != 4 {
		t.Errorf("%d aggregate groups, want one per rc × ttl point (4)", len(full.Aggregates))
	}
	if !reflect.DeepEqual(merged.Aggregates, full.Aggregates) {
		t.Errorf("merged shard aggregates differ from the unsharded store")
	}
}

// TestStringAxisReachesStore: a categorical cpvf.osc axis reaches the
// store records by value and the manifest by its string list, and each
// group prints its mode by name.
func TestStringAxisReachesStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	out, _ := deploy(t, 0, "-scheme", "cpvf", "-scenario", "free", "-n", "20", "-duration", "60", "-runs", "2",
		"-workers", "2", "-seed", "9", "-axis", "cpvf.osc=none,two-step", "-store", dir)
	for _, want := range []string{"cpvf on free, N=20, cpvf.osc=none: 2 runs", "cpvf on free, N=20, cpvf.osc=two-step: 2 runs"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
	if recs := readFile(t, filepath.Join(dir, "records.jsonl")); !strings.Contains(recs, `"str":"none"`) {
		t.Errorf("records lack the string axis value:\n%s", recs)
	}
	if m := readFile(t, filepath.Join(dir, "manifest.json")); !strings.Contains(m, `"strings"`) {
		t.Errorf("manifest lacks the string axis values:\n%s", m)
	}
}

// TestTable1AxisFromFlags: Table 1's floor.ttl_frac axis reaches deploy's
// front door, and its sweep reproduces the quick rows on free that
// EXPERIMENTS.md records for table1.
func TestTable1AxisFromFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	deploy(t, 0, "-scheme", "floor", "-n", "120", "-fixed-seed", "-seed", "1", "-axis", "floor.ttl_frac=0.1,0.4", "-store", dir)
	data, err := mobisense.LoadStores(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"floor.ttl_frac=0.1: coverage 0.3298, distance 126.54 m, messages 797751",
		"floor.ttl_frac=0.4: coverage 0.3407, distance 142.30 m, messages 1238599",
	}
	var got []string
	for _, a := range data.Aggregates {
		got = append(got, fmt.Sprintf("%s=%s: coverage %.4f, distance %.2f m, messages %.0f",
			a.Axes[0].Name, a.Axes[0].ValueString(), a.Coverage.Mean, a.AvgMoveDistance.Mean, a.Messages.Mean))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestAxisSweepResumes: an axis sweep stopped by -max-runs leaves an
// incomplete manifest and its records, resumes to every record, and the
// store appends, keeping the first records byte for byte.
func TestAxisSweepResumes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	sweep := []string{"-scheme", "floor", "-scenario", "free", "-n", "20", "-duration", "60",
		"-runs", "2", "-workers", "1", "-seed", "9", "-axis", "rc=50,60", "-store", dir}
	records := filepath.Join(dir, "records.jsonl")
	_, stderr := deploy(t, 0, append(sweep, "-max-runs", "2")...)
	if !strings.Contains(stderr, "interrupted after 2/4 runs") {
		t.Errorf("stderr %q does not report the cap", stderr)
	}
	first := readFile(t, records)
	if n := strings.Count(first, "\n"); n != 2 {
		t.Fatalf("%d records after -max-runs 2", n)
	}
	manifest := filepath.Join(dir, "manifest.json")
	if m := readFile(t, manifest); !strings.Contains(m, `"complete": false`) {
		t.Errorf("manifest after -max-runs 2:\n%s", m)
	}
	deploy(t, 0, append(sweep, "-resume")...)
	all := readFile(t, records)
	if n := strings.Count(all, "\n"); n != 4 || !strings.HasPrefix(all, first) {
		t.Errorf("resumed store has %d records and keeps the first ones: %v", n, strings.HasPrefix(all, first))
	}
	if m := readFile(t, manifest); !strings.Contains(m, `"complete": true`) {
		t.Errorf("manifest after -resume:\n%s", m)
	}
}

// TestStoreLayoutsFlag: -store-layouts persists each run's final and
// initial layouts in its store record.
func TestStoreLayoutsFlag(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	deploy(t, 0, "-scheme", "floor", "-scenario", "random", "-n", "20", "-duration", "60", "-runs", "2",
		"-workers", "2", "-seed", "9", "-store", dir, "-store-layouts")
	recs := readFile(t, filepath.Join(dir, "records.jsonl"))
	for _, key := range []string{`"positions":[{`, `"initial_positions":[{`} {
		if strings.Count(recs, key) != 2 {
			t.Errorf("records lack %s in every run:\n%s", key, recs)
		}
	}
}

// TestFieldSweepMatchesServe: a custom field spec swept with -field embeds
// the spec in its store manifest, whose bounds read back, and the serve
// API's inline "field" sweep of the same request reaches the same
// aggregates and merges with it.
func TestFieldSweepMatchesServe(t *testing.T) {
	dir := t.TempDir()
	specFile := filepath.Join(dir, "custom.json")
	if err := os.WriteFile(specFile, []byte(customField), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "deployed")
	deploy(t, 0, "-scheme", "floor", "-field", specFile, "-n", "20", "-duration", "60", "-runs", "4",
		"-workers", "2", "-seed", "9", "-store", store, "-map=false")
	if m := readFile(t, filepath.Join(store, "manifest.json")); !strings.Contains(m, `"fields"`) {
		t.Errorf("manifest does not embed the field spec:\n%s", m)
	}
	data, err := mobisense.LoadStores(store)
	if err != nil {
		t.Fatal(err)
	}
	if f := data.Stores[0].Fields; len(f) != 1 || f[0].Spec.Bounds.MaxX != 1000 || len(f[0].Spec.Obstacles) != 2 {
		t.Errorf("embedded fields read back as %+v", f)
	}

	ts := startService(t, filepath.Join(dir, "serve"))
	job := serveJob(t, ts, "/v1/sweeps", `{"scheme":"floor","n":20,"duration":60,"repeats":4,"seed":9,"field":`+customField+`}`)
	served := filepath.Join(dir, "serve", "jobs", job.ID, "store")
	if m := readFile(t, filepath.Join(served, "manifest.json")); !strings.Contains(m, `"fields"`) {
		t.Errorf("served manifest does not embed the field spec:\n%s", m)
	}
	got, err := mobisense.LoadStores(served)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 4 || !reflect.DeepEqual(got.Aggregates, data.Aggregates) {
		t.Errorf("served aggregates of %d runs differ from deploy -field's:\n%+v\nwant:\n%+v", len(got.Runs), got.Aggregates, data.Aggregates)
	}
	if _, err := mobisense.LoadStores(store, served); err != nil {
		t.Errorf("deploy's and serve's stores of one sweep do not merge: %v", err)
	}
}

// customField is an L-shaped field with a door, as a field-spec file.
const customField = `{"name": "lshape-door", "bounds": {"max_x": 1000, "max_y": 1000},
	"obstacles": [{"rect": [500, 500, 1000, 1000]}, {"rect": [480, 0, 520, 460]}]}`

// TestSweepMatchesServe: deploy's flags and the serve API's JSON are one
// request, so a sweep run by either writes the same store: manifest.json
// and records.jsonl byte for byte, and the two stores merge. A single
// run prints the metrics that POST /v1/runs answers for it.
func TestSweepMatchesServe(t *testing.T) {
	dir := t.TempDir()
	specFile := filepath.Join(dir, "custom.json")
	if err := os.WriteFile(specFile, []byte(customField), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := startService(t, filepath.Join(dir, "serve"))
	small := []string{"-n", "20", "-duration", "60", "-runs", "2", "-seed", "9", "-workers", "2"}
	for _, tc := range []struct {
		name string
		args []string
		body string
	}{
		{"scenario", []string{"-scheme", "floor", "-scenario", "two-obstacles"},
			`{"scheme":"floor","scenario":"two-obstacles","n":20,"duration":60,"repeats":2,"seed":9}`},
		{"field file", []string{"-scheme", "floor", "-field", specFile},
			`{"scheme":"floor","field":` + customField + `,"n":20,"duration":60,"repeats":2,"seed":9}`},
		{"cpvf axis", []string{"-scheme", "cpvf", "-delta", "3", "-axis", "rc=50,60"},
			`{"scheme":"cpvf","cpvf":{"Delta":3},"axes":[{"name":"rc","values":[50,60]}],"n":20,"duration":60,"repeats":2,"seed":9}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := filepath.Join(dir, tc.name)
			deploy(t, 0, append(append(tc.args, small...), "-store", store)...)
			job := serveJob(t, ts, "/v1/sweeps", tc.body)
			served := filepath.Join(dir, "serve", "jobs", job.ID, "store")
			for _, name := range []string{"manifest.json", "records.jsonl"} {
				if got, want := readFile(t, filepath.Join(store, name)), readFile(t, filepath.Join(served, name)); got != want {
					t.Errorf("deploy's %s differs from serve's:\n%s\nwant:\n%s", name, got, want)
				}
			}
			if _, err := mobisense.LoadStores(store, served); err != nil {
				t.Errorf("deploy's and serve's stores do not merge: %v", err)
			}
		})
	}

	out, _ := deploy(t, 0, "-scheme", "floor", "-scenario", "two-obstacles", "-n", "20", "-duration", "60", "-seed", "9", "-map=false")
	job := serveJob(t, ts, "/v1/runs", `{"scheme":"floor","scenario":"two-obstacles","n":20,"duration":60,"seed":9}`)
	var rec struct {
		Coverage        float64 `json:"coverage"`
		AvgMoveDistance float64 `json:"avg_move_distance"`
		Connected       bool    `json:"connected"`
	}
	if err := json.Unmarshal(job.Result, &rec); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		fmt.Sprintf("coverage         %.1f%%\n", 100*rec.Coverage),
		fmt.Sprintf("avg distance     %.1f m\n", rec.AvgMoveDistance),
		fmt.Sprintf("connected        %v\n", rec.Connected),
	} {
		if !strings.Contains(out, line) {
			t.Errorf("single run output lacks served %q:\n%s", line, out)
		}
	}
}

// startService serves a deployment service on a data directory for the
// rest of the test.
func startService(t *testing.T, dataDir string) *httptest.Server {
	t.Helper()
	svc, err := mobisense.NewService(dataDir, mobisense.ServiceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

// serveJob submits a request to the service and waits for its job to
// finish.
func serveJob(t *testing.T, ts *httptest.Server, path, body string) server.JobView {
	t.Helper()
	job := requestJob(t, http.MethodPost, ts.URL+path, body)
	for deadline := time.Now().Add(2 * time.Minute); job.State != server.StateDone; {
		if job.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s state %q (err %q), want done", job.ID, job.State, job.Error)
		}
		time.Sleep(20 * time.Millisecond)
		job = requestJob(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID, "")
	}
	return job
}

// TestTracedSweepShardsMerge: a traced sweep run unsharded and as two
// shards at other worker counts persists its series in every record, and
// the merged shards give the unsharded trace curves and aggregates.
// cmd/report's TestRunShardsMergeToUnshardedCSV compares the exported
// CSVs byte for byte.
func TestTracedSweepShardsMerge(t *testing.T) {
	dir := t.TempDir()
	stores := []string{filepath.Join(dir, "full"), filepath.Join(dir, "s0"), filepath.Join(dir, "s1")}
	sweep := []string{"-scheme", "cpvf", "-scenario", "free", "-n", "24", "-duration", "60", "-runs", "6", "-seed", "11", "-trace", "20"}
	deploy(t, 0, append(sweep, "-workers", "2", "-store", stores[0])...)
	deploy(t, 0, append(sweep, "-workers", "1", "-shard", "0/2", "-store", stores[1])...)
	deploy(t, 0, append(sweep, "-workers", "2", "-shard", "1/2", "-store", stores[2])...)
	if m := readFile(t, filepath.Join(stores[0], "manifest.json")); !strings.Contains(m, `"trace": true`) {
		t.Errorf("manifest lacks the trace flag:\n%s", m)
	}
	if recs := readFile(t, filepath.Join(stores[0], "records.jsonl")); strings.Count(recs, `"trace":[`) != 6 {
		t.Errorf("records lack a series in every run:\n%s", recs)
	}
	full, err := mobisense.LoadStores(stores[0])
	if err != nil {
		t.Fatal(err)
	}
	merged, err := mobisense.LoadStores(stores[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	curves := mobisense.AggregateTraces(full.Runs)
	if len(curves) != 1 || curves[0].Runs != 6 || len(curves[0].Points) == 0 || full.Aggregates[0].Convergence == nil {
		t.Fatalf("unsharded store aggregates to %+v", curves)
	}
	if !reflect.DeepEqual(mobisense.AggregateTraces(merged.Runs), curves) || !reflect.DeepEqual(merged.Aggregates, full.Aggregates) {
		t.Errorf("merged shards' trace curves or aggregates differ from the unsharded store's")
	}
}

// TestSingleRunTrace: a traced single run prints its convergence report
// and writes its series with -trace-csv; a baseline whose layout is
// computed outside the event loop says that it yields no trace.
func TestSingleRunTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.csv")
	out, _ := deploy(t, 0, "-scheme", "cpvf", "-n", "24", "-duration", "60", "-trace", "20", "-trace-csv", path, "-map=false")
	if !strings.Contains(out, "settled") {
		t.Errorf("traced run prints no convergence report:\n%s", out)
	}
	if csv := readFile(t, path); !strings.HasPrefix(csv, "t,coverage,connected,") || strings.Count(csv, "\n") < 2 {
		t.Errorf("trace CSV:\n%s", csv)
	}
	if out, _ := deploy(t, 0, "-scheme", "opt", "-n", "24", "-trace", "20", "-map=false"); !strings.Contains(out, "yields no trace") {
		t.Errorf("opt with -trace:\n%s", out)
	}
}

// requestJob sends one request to the service and decodes the job it answers.
func requestJob(t *testing.T, method, url, body string) server.JobView {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return v
}
