package mobisense

import (
	"bufio"
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

	"mobisense/internal/server"
)

// The tests in this file are the deployment service's acceptance
// criteria: submitting the same sweep twice hits the result cache
// without re-running; killing the service mid-sweep and restarting
// resumes only the missing runs; the SSE stream reports monotonically
// increasing completed-run counts; and cancellation keeps finished
// records on disk.

// testSweepBody is a small, fast sweep request used across the tests.
func testSweepBody(repeats int, seed uint64) string {
	return fmt.Sprintf(`{"scheme":"floor","scenario":"free","n":24,"duration":90,"repeats":%d,"seed":%d}`,
		repeats, seed)
}

func startService(t *testing.T, dir string, workers int) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := NewService(dir, ServiceOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	return svc, ts
}

func postJSON(t *testing.T, url, body string) (server.JobView, int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v, resp.StatusCode
}

func getJob(t *testing.T, base, id string) server.JobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return v
}

func waitState(t *testing.T, base, id string, want server.JobState) server.JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		v := getJob(t, base, id)
		if v.State == want {
			return v
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s state = %q (err %q), want %q", id, v.State, v.Error, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func countLines(data []byte) int {
	return bytes.Count(data, []byte("\n"))
}

// TestServerSweepCacheAndSSE: a sweep job runs to completion with a
// monotonic SSE progress stream, serves its stored records, and an
// identical second submission is answered from the result cache without
// executing anything.
func TestServerSweepCacheAndSSE(t *testing.T) {
	dir := t.TempDir()
	svc, ts := startService(t, dir, 2)
	defer ts.Close()
	defer svc.Close()

	body := testSweepBody(4, 7)
	first, status := postJSON(t, ts.URL+"/v1/sweeps", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	if first.State.Terminal() {
		t.Fatalf("fresh job already terminal: %q", first.State)
	}

	// Consume the SSE stream until the job finishes.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content-type = %q", ct)
	}
	var dones []int
	finalState := server.JobState("")
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				var p server.Progress
				if err := json.Unmarshal([]byte(data), &p); err != nil {
					t.Fatalf("bad progress payload %q: %v", data, err)
				}
				if p.Total != 4 {
					t.Errorf("progress total = %d, want 4", p.Total)
				}
				dones = append(dones, p.Done)
			case "state":
				var v server.JobView
				if err := json.Unmarshal([]byte(data), &v); err != nil {
					t.Fatalf("bad state payload %q: %v", data, err)
				}
				finalState = v.State
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if finalState != server.StateDone {
		t.Fatalf("final SSE state = %q, want done", finalState)
	}
	if len(dones) == 0 {
		t.Fatal("no progress events")
	}
	for i := 1; i < len(dones); i++ {
		if dones[i] < dones[i-1] {
			t.Fatalf("progress counts not monotonic: %v", dones)
		}
	}
	if last := dones[len(dones)-1]; last != 4 {
		t.Errorf("last progress done = %d, want 4", last)
	}

	done := waitState(t, ts.URL, first.ID, server.StateDone)
	var sum SweepJobResult
	if err := json.Unmarshal(done.Result, &sum); err != nil {
		t.Fatalf("decode sweep result: %v", err)
	}
	if sum.Runs != 4 || len(sum.Aggregates) == 0 {
		t.Fatalf("sweep result = %+v, want 4 runs with aggregates", sum)
	}
	if sum.Aggregates[0].Coverage.Mean <= 0 {
		t.Error("aggregate coverage mean should be positive")
	}

	// Stored records are served as JSONL and CSV.
	recResp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID + "/records")
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := readAll(t, recResp)
	if countLines(recs) != 4 {
		t.Errorf("records.jsonl has %d lines, want 4", countLines(recs))
	}
	csvResp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID + "/records?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := readAll(t, csvResp)
	if countLines(csv) != 5 || !bytes.HasPrefix(csv, []byte("index,scheme")) {
		t.Errorf("records csv = %q", csv)
	}

	// An identical submission is a cache hit: immediately done, same
	// result, no store of its own.
	second, status := postJSON(t, ts.URL+"/v1/sweeps", body)
	if status != http.StatusOK {
		t.Fatalf("cache-hit status = %d, want 200", status)
	}
	if !second.CacheHit || second.State != server.StateDone {
		t.Fatalf("second submission = state %q cacheHit=%v, want done/true", second.State, second.CacheHit)
	}
	if !bytes.Equal(second.Result, done.Result) {
		t.Error("cache-hit result differs from the original job's result")
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", second.ID, "store")); !os.IsNotExist(err) {
		t.Errorf("cache-hit job grew a store (stat err %v)", err)
	}
	// A different sweep is NOT a cache hit.
	third, status := postJSON(t, ts.URL+"/v1/sweeps", testSweepBody(4, 8))
	if status != http.StatusAccepted || third.CacheHit {
		t.Fatalf("different sweep: status %d cacheHit=%v, want 202/false", status, third.CacheHit)
	}
}

func readAll(t *testing.T, resp *http.Response) ([]byte, int) {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), resp.StatusCode
}

// TestServerRestartResume: shutting the service down mid-sweep keeps the
// finished runs on disk; a new service over the same data directory
// re-queues the job and executes only the missing runs (the stored
// record bytes are a strict prefix of the completed file).
func TestServerRestartResume(t *testing.T) {
	dir := t.TempDir()
	svc1, ts1 := startService(t, dir, 1)

	// Individual runs are milliseconds; a wide sweep (60 repeats) keeps a
	// comfortable window to shut down mid-flight without flakes.
	const repeats = 60
	v, status := postJSON(t, ts1.URL+"/v1/sweeps", testSweepBody(repeats, 13))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	recordsPath := filepath.Join(dir, "jobs", v.ID, "store", "records.jsonl")

	// Wait for at least one finished run to reach the store, then shut
	// down mid-sweep.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if data, err := os.ReadFile(recordsPath); err == nil && countLines(data) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no record appeared before the deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts1.Close()
	svc1.Close()

	before, err := os.ReadFile(recordsPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := countLines(before); n == 0 || n >= repeats {
		t.Fatalf("interrupted store holds %d of %d runs; want a proper subset", n, repeats)
	}

	// Restart: the job re-queues automatically and resumes from the store.
	svc2, ts2 := startService(t, dir, 1)
	defer ts2.Close()
	defer svc2.Close()
	done := waitState(t, ts2.URL, v.ID, server.StateDone)

	after, err := os.ReadFile(recordsPath)
	if err != nil {
		t.Fatal(err)
	}
	if countLines(after) != repeats {
		t.Fatalf("resumed store holds %d records, want %d", countLines(after), repeats)
	}
	// Resumed sessions replay finished runs instead of re-executing them,
	// so the pre-restart bytes survive verbatim as a prefix.
	if !bytes.HasPrefix(after, before) {
		t.Error("pre-restart records were rewritten; resume should only append missing runs")
	}
	var sum SweepJobResult
	if err := json.Unmarshal(done.Result, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Runs != repeats {
		t.Errorf("resumed job result runs = %d, want %d", sum.Runs, repeats)
	}

	// The completed (resumed) job also feeds the cache after restart.
	hit, status := postJSON(t, ts2.URL+"/v1/sweeps", testSweepBody(repeats, 13))
	if status != http.StatusOK || !hit.CacheHit {
		t.Errorf("post-restart resubmission: status %d cacheHit=%v, want 200/true", status, hit.CacheHit)
	}
}

// TestServerCancelKeepsRecords: DELETE stops a running job after its
// in-flight runs finish; every completed run's record stays on disk.
func TestServerCancelKeepsRecords(t *testing.T) {
	dir := t.TempDir()
	svc, ts := startService(t, dir, 1)
	defer ts.Close()
	defer svc.Close()

	const repeats = 60
	v, _ := postJSON(t, ts.URL+"/v1/sweeps", testSweepBody(repeats, 21))
	recordsPath := filepath.Join(dir, "jobs", v.ID, "store", "records.jsonl")
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if data, err := os.ReadFile(recordsPath); err == nil && countLines(data) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no record appeared before the deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancelled := waitState(t, ts.URL, v.ID, server.StateCancelled)
	if cancelled.Error != "cancelled" {
		t.Errorf("cancelled job error = %q", cancelled.Error)
	}

	data, err := os.ReadFile(recordsPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := countLines(data); n == 0 || n >= repeats {
		t.Errorf("cancelled job kept %d of %d records; want a proper subset", n, repeats)
	}
}

// TestServerRunJobAndIntrospection: single-run jobs work end to end, the
// registries are introspectable, and malformed requests are rejected.
func TestServerRunJobAndIntrospection(t *testing.T) {
	dir := t.TempDir()
	svc, ts := startService(t, dir, 0)
	defer ts.Close()
	defer svc.Close()

	v, status := postJSON(t, ts.URL+"/v1/runs", `{"scheme":"opt","n":40}`)
	if status != http.StatusAccepted {
		t.Fatalf("run submit status = %d", status)
	}
	done := waitState(t, ts.URL, v.ID, server.StateDone)
	var rec struct {
		Scheme   string  `json:"scheme"`
		Coverage float64 `json:"coverage"`
	}
	if err := json.Unmarshal(done.Result, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Scheme != "opt" || rec.Coverage <= 0 {
		t.Errorf("run result = %+v", rec)
	}
	// Identical run → cache hit.
	if hit, status := postJSON(t, ts.URL+"/v1/runs", `{"scheme":"opt","n":40}`); status != http.StatusOK || !hit.CacheHit {
		t.Errorf("identical run: status %d cacheHit=%v", status, hit.CacheHit)
	}
	// The stored record carries the (defaulted) scenario name, like
	// sweep-job records do.
	recCSV, _ := readAll(t, mustGet(t, ts.URL+"/v1/jobs/"+v.ID+"/records?format=csv"))
	if !bytes.Contains(recCSV, []byte(",opt,free,")) {
		t.Errorf("run record csv lacks scheme/scenario: %s", recCSV)
	}

	// Registry introspection.
	schemes, _ := readAll(t, mustGet(t, ts.URL+"/v1/schemes"))
	if !bytes.Contains(schemes, []byte(`"floor"`)) || !bytes.Contains(schemes, []byte(`"cpvf"`)) {
		t.Errorf("schemes = %s", schemes)
	}
	scenarios, _ := readAll(t, mustGet(t, ts.URL+"/v1/scenarios"))
	if !bytes.Contains(scenarios, []byte(`"two-obstacles"`)) {
		t.Errorf("scenarios = %s", scenarios)
	}

	// Bad requests fail loudly.
	if _, status := postJSON(t, ts.URL+"/v1/runs", `{"scheme":"nope"}`); status != http.StatusBadRequest {
		t.Errorf("unknown scheme status = %d, want 400", status)
	}
	if _, status := postJSON(t, ts.URL+"/v1/sweeps", `{"scheme":"floor","repeat":3}`); status != http.StatusBadRequest {
		t.Errorf("unknown field status = %d, want 400", status)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/jdeadbeef0000"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSweepRequestAxes: the wire axes resolve through the built-in axis
// registry into real sweep dimensions, fixed_seed pins every run to the
// base seed, and unknown axis names are rejected at validation.
func TestSweepRequestAxes(t *testing.T) {
	req := SweepRequest{
		RunRequest: RunRequest{Scheme: "floor", N: 20, Duration: 60, Seed: 9},
		Axes:       []AxisSpec{{Name: "rc", Values: []float64{50, 60}}},
		FixedSeed:  true,
	}
	s, err := req.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("expanded %d runs, want 2", len(specs))
	}
	for i, want := range []float64{50, 60} {
		if specs[i].Config.Rc != want || specs[i].Seed != 9 {
			t.Errorf("run %d: rc=%g seed=%d, want rc=%g seed=9",
				i, specs[i].Config.Rc, specs[i].Seed, want)
		}
	}

	req.Axes = []AxisSpec{{Name: "bogus", Values: []float64{1}}}
	if _, err := req.Sweep(); err == nil {
		t.Error("unknown axis name should be rejected")
	}
}

// TestServeTable1Axis: Table 1's floor.ttl_frac axis is a request like
// any other, so POST /v1/sweeps runs it and its aggregates carry each
// fraction.
func TestServeTable1Axis(t *testing.T) {
	svc, ts := startService(t, t.TempDir(), 2)
	defer ts.Close()
	defer svc.Close()
	v, status := postJSON(t, ts.URL+"/v1/sweeps",
		`{"scheme":"floor","n":20,"duration":60,"seed":1,"fixed_seed":true,"axes":[{"name":"floor.ttl_frac","values":[0.1,0.4]}]}`)
	if status != http.StatusAccepted {
		t.Fatalf("floor.ttl_frac sweep: status %d, want 202", status)
	}
	var res SweepJobResult
	if err := json.Unmarshal(waitState(t, ts.URL, v.ID, server.StateDone).Result, &res); err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, a := range res.Aggregates {
		if len(a.Axes) == 1 && a.Axes[0].Name == "floor.ttl_frac" {
			got = append(got, a.Axes[0].Value)
		}
	}
	if res.Runs != 2 || !reflect.DeepEqual(got, []float64{0.1, 0.4}) {
		t.Errorf("%d runs with floor.ttl_frac values %v, want 2 runs at 0.1 and 0.4", res.Runs, got)
	}
}

// TestServerInlineField: a custom environment submitted as inline JSON
// data runs end to end — the job completes, its record carries an empty
// scenario (custom field), the store manifest embeds the spec, the
// catalog exposes every scenario's spec, and conflicting or malformed
// field requests are rejected up front.
func TestServerInlineField(t *testing.T) {
	dir := t.TempDir()
	svc, ts := startService(t, dir, 2)
	defer ts.Close()
	defer svc.Close()

	field := `{"name":"depot","bounds":{"max_x":900,"max_y":700},"obstacles":[{"rect":[300,150,500,350]}]}`

	// Single run over the inline field.
	v, status := postJSON(t, ts.URL+"/v1/runs", `{"scheme":"floor","n":20,"duration":60,"field":`+field+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("inline-field run submit status = %d", status)
	}
	done := waitState(t, ts.URL, v.ID, server.StateDone)
	var rec struct {
		Scenario string  `json:"scenario"`
		Coverage float64 `json:"coverage"`
	}
	if err := json.Unmarshal(done.Result, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Scenario != "" || rec.Coverage <= 0 {
		t.Errorf("inline-field run result = %+v", rec)
	}

	// A sweep over the inline field persists the spec in its store
	// manifest, so the store reproduces without this server.
	sv, status := postJSON(t, ts.URL+"/v1/sweeps",
		`{"scheme":"floor","n":20,"duration":60,"repeats":2,"seed":5,"field":`+field+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("inline-field sweep submit status = %d", status)
	}
	waitState(t, ts.URL, sv.ID, server.StateDone)
	manifest, err := os.ReadFile(filepath.Join(dir, "jobs", sv.ID, "store", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(manifest, []byte(`"fields"`)) || !bytes.Contains(manifest, []byte(`"max_x": 900`)) {
		t.Errorf("sweep store manifest lacks the embedded field spec:\n%s", manifest)
	}
	// The identical resubmission is a cache hit: the fingerprint hashes
	// the geometry, not a scenario name.
	if hit, status := postJSON(t, ts.URL+"/v1/sweeps",
		`{"scheme":"floor","n":20,"duration":60,"repeats":2,"seed":5,"field":`+field+`}`); status != http.StatusOK || !hit.CacheHit {
		t.Errorf("identical inline-field sweep: status %d cacheHit=%v", status, hit.CacheHit)
	}

	// Conflicts and malformed specs are 400s.
	if _, status := postJSON(t, ts.URL+"/v1/runs",
		`{"scheme":"floor","scenario":"free","field":`+field+`}`); status != http.StatusBadRequest {
		t.Errorf("field+scenario status = %d, want 400", status)
	}
	if _, status := postJSON(t, ts.URL+"/v1/sweeps",
		`{"scheme":"floor","scenarios":["free"],"field":`+field+`}`); status != http.StatusBadRequest {
		t.Errorf("field+scenarios status = %d, want 400", status)
	}
	if _, status := postJSON(t, ts.URL+"/v1/runs",
		`{"scheme":"floor","field":{"bounds":{"max_x":0,"max_y":0}}}`); status != http.StatusBadRequest {
		t.Errorf("degenerate field status = %d, want 400", status)
	}
	// A generator count past the spec limit (here one whose count range
	// overflows) is refused before anything builds.
	oversize := `{"bounds":{"max_x":100,"max_y":100},"generator":{"min_count":0,"max_count":9223372036854775807,"min_side":1,"max_side":2}}`
	for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
		if _, status := postJSON(t, ts.URL+path, `{"scheme":"floor","n":20,"duration":60,"field":`+oversize+`}`); status != http.StatusBadRequest {
			t.Errorf("%s with an oversize generator: status = %d, want 400", path, status)
		}
	}

	// The scenario catalog carries each entry's spec and obstacle count,
	// and the axis catalog marks integer axes.
	catalog, _ := readAll(t, mustGet(t, ts.URL+"/v1/scenarios"))
	var scList struct {
		Scenarios []ScenarioInfo `json:"scenarios"`
	}
	if err := json.Unmarshal(catalog, &scList); err != nil {
		t.Fatal(err)
	}
	found := map[string]ScenarioInfo{}
	for _, sc := range scList.Scenarios {
		found[sc.Name] = sc
	}
	if sc := found["narrow-door"]; sc.Spec == nil || sc.Obstacles != 2 {
		t.Errorf("narrow-door catalog entry = %+v", sc)
	}
	if sc := found["random-field"]; sc.Spec == nil || !sc.Seeded || sc.Spec.Generator == nil {
		t.Errorf("random-field catalog entry = %+v", sc)
	}
	axes, _ := readAll(t, mustGet(t, ts.URL+"/v1/axes"))
	if !bytes.Contains(axes, []byte(`"field.ref"`)) || !bytes.Contains(axes, []byte(`"integer": true`)) {
		t.Errorf("axes catalog = %s", axes)
	}
}

// TestServerTraceAnalytics: a trace_layouts sweep marks its manifest for
// replay, its series and layout snapshots round-trip through the remote
// store URL, the /traces endpoint serves the same aggregation that local
// LoadStores + AggregateTraces computes, and bad trace parameters answer
// 400 with a clear message.
func TestServerTraceAnalytics(t *testing.T) {
	dir := t.TempDir()
	svc, ts := startService(t, dir, 0)
	defer ts.Close()
	defer svc.Close()

	body := `{"scheme":"cpvf","scenario":"free","n":24,"duration":60,"repeats":2,"seed":5,"trace":20,"trace_layouts":true}`
	v, status := postJSON(t, ts.URL+"/v1/sweeps", body)
	if status != http.StatusAccepted {
		t.Fatalf("traced sweep submit status = %d", status)
	}
	waitState(t, ts.URL, v.ID, server.StateDone)
	manifest, _ := readAll(t, mustGet(t, ts.URL+"/v1/jobs/"+v.ID+"/store/manifest.json"))
	if !bytes.Contains(manifest, []byte(`"trace_layouts": true`)) {
		t.Errorf("replay store's manifest lacks the trace_layouts flag:\n%s", manifest)
	}

	// Remote store round trip: the server's store URL loads like a local
	// directory and aggregates identically.
	remote, err := LoadStores(ts.URL + "/v1/jobs/" + v.ID + "/store")
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.Runs) != 2 {
		t.Fatalf("remote store has %d runs, want 2", len(remote.Runs))
	}
	for i, br := range remote.Runs {
		if len(br.Result.Trace) == 0 {
			t.Fatalf("remote run %d lost its trace", i)
		}
		for j, s := range br.Result.Trace {
			if len(s.Layout) == 0 {
				t.Fatalf("remote run %d sample %d lost its layout snapshot", i, j)
			}
		}
		if br.Result.Convergence == nil {
			t.Fatalf("remote run %d lost its convergence metrics", i)
		}
	}
	want := AggregateTraces(remote.Runs)

	// The /traces endpoint serves exactly that aggregation.
	resp := mustGet(t, ts.URL+"/v1/jobs/"+v.ID+"/traces")
	var got struct {
		Traces []TraceAggregate `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !reflect.DeepEqual(got.Traces, want) {
		t.Fatal("/traces disagrees with local aggregation of the remote store")
	}
	if len(got.Traces) != 1 || got.Traces[0].Runs != 2 || len(got.Traces[0].Points) == 0 {
		t.Fatalf("traces = %+v", got.Traces)
	}

	// Invalid trace parameters are rejected with 400s.
	if _, status := postJSON(t, ts.URL+"/v1/runs", `{"scheme":"cpvf","trace":-5}`); status != http.StatusBadRequest {
		t.Errorf("negative stride status = %d, want 400", status)
	}
	if _, status := postJSON(t, ts.URL+"/v1/runs", `{"scheme":"cpvf","trace_layouts":true}`); status != http.StatusBadRequest {
		t.Errorf("trace_layouts without trace status = %d, want 400", status)
	}
	if _, status := postJSON(t, ts.URL+"/v1/runs", `{"scheme":"cpvf","trace":20,"trace_layout_stride":-1}`); status != http.StatusBadRequest {
		t.Errorf("negative trace_layout_stride status = %d, want 400", status)
	}
	if _, status := postJSON(t, ts.URL+"/v1/runs", `{"scheme":"cpvf","trace":20,"trace_layout_stride":3}`); status != http.StatusBadRequest {
		t.Errorf("trace_layout_stride without trace_layouts status = %d, want 400", status)
	}
	if _, status := postJSON(t, ts.URL+"/v1/runs", `{"scheme":"cpvf","trace_layout_stride":3}`); status != http.StatusBadRequest {
		t.Errorf("trace_layout_stride without trace status = %d, want 400", status)
	}
}
