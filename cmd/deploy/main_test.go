package main

import (
	"bytes"
	"encoding/json"
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
// a flag its sweep defines, and -resume without -store exit 2 with the
// cause on stderr.
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
// store records by value and the manifest by its string list.
func TestStringAxisReachesStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	deploy(t, 0, "-scheme", "cpvf", "-scenario", "free", "-n", "20", "-duration", "60", "-runs", "2",
		"-workers", "2", "-seed", "9", "-axis", "cpvf.osc=none,two-step", "-store", dir)
	if recs := readFile(t, filepath.Join(dir, "records.jsonl")); !strings.Contains(recs, `"str":"none"`) {
		t.Errorf("records lack the string axis value:\n%s", recs)
	}
	if m := readFile(t, filepath.Join(dir, "manifest.json")); !strings.Contains(m, `"strings"`) {
		t.Errorf("manifest lacks the string axis values:\n%s", m)
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
// aggregates.
func TestFieldSweepMatchesServe(t *testing.T) {
	dir := t.TempDir()
	spec := `{"name": "lshape-door", "bounds": {"max_x": 1000, "max_y": 1000},
		"obstacles": [{"rect": [500, 500, 1000, 1000]}, {"rect": [480, 0, 520, 460]}]}`
	specFile := filepath.Join(dir, "custom.json")
	if err := os.WriteFile(specFile, []byte(spec), 0o644); err != nil {
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

	svc, err := mobisense.NewService(filepath.Join(dir, "serve"), mobisense.ServiceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Close()
	body := `{"scheme":"floor","n":20,"duration":60,"repeats":4,"seed":9,"field":` + spec + `}`
	job := requestJob(t, http.MethodPost, ts.URL+"/v1/sweeps", body)
	for deadline := time.Now().Add(2 * time.Minute); job.State != server.StateDone; {
		if job.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s state %q (err %q), want done", job.ID, job.State, job.Error)
		}
		time.Sleep(20 * time.Millisecond)
		job = requestJob(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID, "")
	}
	// The records' config fingerprints differ (deploy's flags set scheme
	// options the request leaves at their defaults); the runs do not.
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
