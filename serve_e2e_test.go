package mobisense

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mobisense/internal/server"
)

// TestServeCrashResumeCacheCancel walks the service through a crash and
// its aftermath, over HTTP:
//   - a copy of the data directory taken mid-sweep, with a torn line
//     appended to its records, stands in for a killed server: job.json
//     still reads running;
//   - a service restarted on the copy resumes the job to the full record
//     count, and its records.jsonl is byte-equal to the store of the same
//     job run without interruption;
//   - an identical resubmission is a cache hit that creates no store;
//   - the event stream of a finished job delivers its terminal state;
//   - a cancelled job keeps its finished records.
func TestServeCrashResumeCacheCancel(t *testing.T) {
	g := withGatedScheme(t)
	dir := t.TempDir()
	_, ts := g.service(t, dir, 1, 1)
	if body, _ := readAll(t, mustGet(t, ts.URL+"/v1/scenarios")); !bytes.Contains(body, []byte(`"two-obstacles"`)) {
		t.Fatalf("scenario catalog lacks two-obstacles: %s", body)
	}

	const repeats = 6
	body := gatedSweepBody(repeats, 9)
	seeds := sweepSeeds(t, body)
	job, status := postJSON(t, ts.URL+"/v1/sweeps", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	// Two runs finish; the third holds, so the job is mid-sweep.
	g.release(seeds[:2]...)
	expectStarts(t, g, seeds[:3])
	crashed := filepath.Join(t.TempDir(), "data")
	copyTree(t, dir, crashed)
	if st := jobFileState(t, crashed, job.ID); st != server.StateRunning {
		t.Fatalf("copied job.json reads %q, want running", st)
	}
	records := filepath.Join("jobs", job.ID, "store", "records.jsonl")
	f, err := os.OpenFile(filepath.Join(crashed, records), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"index":2,"scheme":"test-ga`) // killed mid-append
	f.Close()

	// The original finishes uninterrupted: the reference store.
	g.release(seeds[2:]...)
	waitState(t, ts.URL, job.ID, server.StateDone)
	want := readFile(t, filepath.Join(dir, records))
	expectStarts(t, g, seeds[3:])

	_, ts2 := g.service(t, crashed, 1, 1)
	done := waitState(t, ts2.URL, job.ID, server.StateDone)
	expectStarts(t, g, seeds[2:]) // only the runs without a record
	got := readFile(t, filepath.Join(crashed, records))
	if countLines(got) != repeats || !bytes.Equal(got, want) {
		t.Errorf("resumed records (%d lines) differ from the uninterrupted store (%d lines):\n%s\n---\n%s",
			countLines(got), countLines(want), got, want)
	}
	if !bytes.Contains(done.Result, []byte(`"aggregates"`)) {
		t.Errorf("resumed job result lacks aggregates: %s", done.Result)
	}
	if csv, _ := readAll(t, mustGet(t, ts2.URL+"/v1/jobs/"+job.ID+"/records?format=csv")); !bytes.HasPrefix(csv, []byte("index,scheme")) {
		t.Errorf("records CSV header: %.40q", csv)
	}

	hit, status := postJSON(t, ts2.URL+"/v1/sweeps", body)
	if status != http.StatusOK || !hit.CacheHit || hit.State != server.StateDone {
		t.Errorf("resubmission: status %d, cache_hit %t, state %s; want 200, true, done", status, hit.CacheHit, hit.State)
	}
	if _, err := os.Stat(filepath.Join(crashed, "jobs", hit.ID, "store")); !os.IsNotExist(err) {
		t.Errorf("cache hit created a store (%v)", err)
	}

	resp := mustGet(t, ts2.URL+"/v1/jobs/"+job.ID+"/events")
	event, data := firstEvent(t, resp.Body)
	resp.Body.Close()
	if event != "state" || !strings.Contains(data, `"state":"done"`) {
		t.Errorf("finished job's first event = %s %s, want its done state", event, data)
	}

	// Cancel mid-flight: the first run finishes, the second holds.
	body2 := gatedSweepBody(repeats, 10)
	seeds2 := sweepSeeds(t, body2)
	job2, _ := postJSON(t, ts2.URL+"/v1/sweeps", body2)
	g.release(seeds2[0])
	expectStarts(t, g, seeds2[:2])
	deleteJob(t, ts2.URL, job2.ID)
	g.release(seeds2[1])
	waitState(t, ts2.URL, job2.ID, server.StateCancelled)
	if n := countLines(readFile(t, filepath.Join(crashed, "jobs", job2.ID, "store", "records.jsonl"))); n != 2 {
		t.Errorf("cancelled job kept %d records, want the 2 it finished", n)
	}
}

// expectStarts fails the test unless the next runs to start are seeds, in
// order.
func expectStarts(t *testing.T, g *runGate, seeds []uint64) {
	t.Helper()
	for i, want := range seeds {
		if got := g.next(t); got != want {
			t.Fatalf("start %d: run %d, want %d", i, got, want)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// copyTree copies the regular files under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// firstEvent reads one server-sent event: its type and data.
func firstEvent(t *testing.T, r io.Reader) (event, data string) {
	t.Helper()
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			return event, data
		}
	}
	t.Fatalf("event stream ended without an event (%v)", sc.Err())
	return "", ""
}

// TestServeObservability: the dashboard and its script serve before any
// job runs, and /metrics in both formats; a traced sweep then advances
// the run, job, store and HTTP counters, the per-scheme run-duration
// histogram and the convergence histograms, and its store keeps every
// run's series.
func TestServeObservability(t *testing.T) {
	dir := t.TempDir()
	svc, ts := startService(t, dir, 2)
	defer ts.Close()
	defer svc.Close()
	for _, tc := range []struct{ path, want string }{
		{"/", "<title>mobisense"},
		{"/ui/app.js", "refreshJobs"},
		{"/ui/app.js", "drawTraceAgg"},
		{"/metrics", "\njobs_total{"},
		{"/metrics?format=json", `"jobs_running"`},
	} {
		if body, status := readAll(t, mustGet(t, ts.URL+tc.path)); status != http.StatusOK || !bytes.Contains(body, []byte(tc.want)) {
			t.Errorf("GET %s: status %d, body lacks %q", tc.path, status, tc.want)
		}
	}

	const repeats = 8
	before := scrapeMetrics(t, ts.URL)
	body := fmt.Sprintf(`{"scheme":"floor","scenario":"free","n":24,"duration":90,"repeats":%d,"seed":9,"trace":30}`, repeats)
	job, status := postJSON(t, ts.URL+"/v1/sweeps", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	waitState(t, ts.URL, job.ID, server.StateDone)
	after := scrapeMetrics(t, ts.URL)
	for name, least := range map[string]float64{
		"runs_started_total":                         repeats,
		`jobs_total{outcome="done"}`:                 1,
		`run_duration_seconds_count{scheme="floor"}`: repeats,
		"store_bytes_written_total":                  1,
		`http_requests_total{method="GET"}`:          1,
		"run_settling_time_seconds_count":            repeats,
		"run_time_to_90_coverage_seconds_count":      repeats,
	} {
		if got := after[name] - before[name]; got < least {
			t.Errorf("%s advanced by %g across the sweep, want at least %g", name, got, least)
		}
	}
	store := filepath.Join(dir, "jobs", job.ID, "store")
	if m := readFile(t, filepath.Join(store, "manifest.json")); !bytes.Contains(m, []byte(`"trace": true`)) {
		t.Errorf("manifest lacks the trace flag:\n%s", m)
	}
	if recs, _ := readAll(t, mustGet(t, ts.URL+"/v1/jobs/"+job.ID+"/store/records.jsonl")); bytes.Count(recs, []byte(`"trace":[`)) != repeats {
		t.Errorf("served records lack a series in every run:\n%.500s", recs)
	}
}

// scrapeMetrics reads GET /metrics' Prometheus text into a map from
// series to value.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	body, _ := readAll(t, mustGet(t, base+"/metrics"))
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}
