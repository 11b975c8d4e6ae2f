package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mobisense"
)

// serveWorkload drives a Service over HTTP with closed-loop clients: each
// submits a sweep job, follows its event stream to the terminal state, then
// reads the job's records and trace curves. Every fourth submission repeats
// the client's previous job and must be answered from the result cache.
type serveWorkload struct {
	clients, workers int
	n                int
	duration         float64
	repeats          int
	trace            float64
}

const (
	// readbackJobs bounds how many job stores a pass reloads through
	// LoadStores for store.readback_ms.
	readbackJobs = 5
	// warmupSeconds of traffic precede the measured pass.
	warmupSeconds = 2
	// sliceSeconds is the width of the time slices in which the profiled
	// and the unprofiled pass take turns.
	sliceSeconds = 4
)

func (w serveWorkload) sized() serveWorkload {
	if smokeScale {
		w.n, w.duration, w.repeats = 20, 40, 1
	}
	return w
}

func (w serveWorkload) jobRuns() int { return 2 * w.repeats }

// body is the JSON request of one sweep job; seed makes it unique.
func (w serveWorkload) body(seed uint64) []byte {
	req := mobisense.SweepRequest{
		RunRequest: mobisense.RunRequest{N: w.n, Duration: w.duration, Trace: w.trace, Seed: seed},
		Schemes:    []string{string(mobisense.SchemeCPVF), string(mobisense.SchemeFLOOR)},
		Scenarios:  []string{"two-obstacles"},
		Repeats:    w.repeats,
	}
	data, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct of plain fields always encodes
	}
	return data
}

// setUp stands the service up: NewService on a fresh data directory, the
// HTTP server, and the first GET /v1/schemes. stop shuts both down.
func (w serveWorkload) setUp(dir string) (c *serveClient, stop func(), err error) {
	svc, err := mobisense.NewService(dir, mobisense.ServiceOptions{Workers: w.workers, Jobs: 1})
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	srv := httptest.NewServer(svc.Handler())
	stop = func() {
		srv.Close()
		svc.Close()
	}
	c = &serveClient{hc: srv.Client(), base: srv.URL, w: w}
	var schemes struct {
		Schemes []struct{ Name string } `json:"schemes"`
	}
	if _, err := c.getJSON("/v1/schemes", &schemes); err != nil || len(schemes.Schemes) == 0 {
		stop()
		return nil, nil, fmt.Errorf("set-up: list schemes: %d listed (%v)", len(schemes.Schemes), err)
	}
	return c, stop, nil
}

func (ws *serveWorkload) run(name string, opt options, dir string, trace bool) ([]time.Duration, []outcome, error) {
	w := ws.sized()
	// Each set-up repetition is a fresh process (see coldSetup); the
	// service the measured passes use is stood up once more, untimed.
	var setup []time.Duration
	for k := range setupReps {
		d, err := coldSetup(name, opt.seed, filepath.Join(dir, fmt.Sprintf("setup%d", k)))
		if err != nil {
			return nil, nil, fmt.Errorf("%s %w", name, err)
		}
		setup = append(setup, d)
	}
	c, stop, err := w.setUp(filepath.Join(dir, "svc"))
	if err != nil {
		return nil, nil, fmt.Errorf("%s %w", name, err)
	}
	defer stop()

	// Warm-up traffic runs before anything is timed; its jobs are checked
	// like the measured ones, and its first job is the one the golden
	// digest covers.
	warm, err := c.pass(name, opt, mix(opt.seed, domainWarm), min(warmupSeconds, opt.seconds), &meter{}, true)
	if err != nil {
		return nil, nil, err
	}
	// The measured passes: the unprofiled one, and with trace a profiled
	// one. With trace the two alternate slice by slice, so both see the
	// same machine conditions and trace.overhead compares like with like.
	passes := []outcome{{workers: w.workers}}
	slices, seconds := 1, opt.seconds
	if trace {
		passes = append(passes, outcome{workers: w.workers})
		slices = max(1, int(math.Round(opt.seconds/sliceSeconds)))
		seconds /= float64(slices)
	}
	for i := range slices * len(passes) {
		p := i % len(passes)
		o, err := c.pass(name, opt, mix(opt.seed, domainPass, uint64(i)), seconds, &meter{profile: p == 1}, false)
		if err != nil {
			return nil, nil, err
		}
		passes[p].merge(o)
	}
	passes[0].merge(outcome{attempted: warm.attempted, failed: warm.failed, problems: warm.problems})
	return setup, passes, nil
}

type serveClient struct {
	hc   *http.Client
	base string
	w    serveWorkload
}

// jobView is the part of the service's job document the clients read.
type jobView struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	CacheHit bool            `json:"cache_hit"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

func (v jobView) terminal() bool {
	return v.State == "done" || v.State == "failed" || v.State == "cancelled"
}

// executedJob is a job a client saw run to completion.
type executedJob struct {
	id         string
	recordsCSV []byte
}

// pass runs the clients for the given number of seconds on the job stream
// seeded by stream, then verifies every executed job's store through the
// remote store endpoints. With golden it also checks the first job's
// records against the recorded digest.
func (c *serveClient) pass(name string, opt options, stream uint64, seconds float64, m *meter, golden bool) (outcome, error) {
	o := outcome{workers: c.w.workers}
	before, err := c.counters()
	if err != nil {
		return o, err
	}
	if err := m.begin(); err != nil {
		return o, err
	}
	outs := make([]outcome, c.w.clients)
	jobs := make([][]executedJob, c.w.clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for k := range c.w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[k], jobs[k] = c.loop(mix(stream, uint64(k)), deadline)
		}()
	}
	wg.Wait()
	o.wall = time.Since(start)
	if err := m.end(); err != nil {
		return o, err
	}
	m.record(&o)
	after, err := c.counters()
	if err != nil {
		return o, err
	}
	o.sseEvents = after.sse - before.sse
	o.httpRequests = after.http - before.http - 1 // the "before" scrape itself

	for k := range outs {
		o.merge(outs[k])
	}
	if golden && len(jobs[0]) > 0 && !smokeScale && opt.seed == defaultSeed {
		o.attempted++
		sum := sha256.Sum256(jobs[0][0].recordsCSV)
		compareGolden(&o, name, opt, hex.EncodeToString(sum[:]))
	}
	n := 0
	for _, js := range jobs {
		for _, j := range js {
			c.verifyStore(&o, j.id, n < readbackJobs)
			n++
		}
	}
	return o, nil
}

// loop is one closed-loop client: its next request goes out only after the
// previous one completed.
func (c *serveClient) loop(stream uint64, deadline time.Time) (outcome, []executedJob) {
	var (
		o          outcome
		jobs       []executedJob
		lastBody   []byte
		lastResult json.RawMessage
	)
	for i := 0; time.Now().Before(deadline); i++ {
		hit := i%4 == 3 && lastBody != nil
		body := lastBody
		if !hit {
			body = c.w.body(mix(stream, uint64(i)))
		}
		o.attempted++
		start := time.Now()
		var view jobView
		status, err := c.post("/v1/sweeps", body, &view)
		if err != nil {
			o.fail("submit: %v", err)
			continue
		}
		if hit {
			o.span("cache_hit", time.Since(start))
			switch {
			case status != http.StatusOK || !view.CacheHit || view.State != "done":
				o.fail("resubmitted job %s: status %d, cache_hit=%t, state %s", view.ID, status, view.CacheHit, view.State)
			case !jsonEqual(view.Result, lastResult):
				o.fail("cache hit %s: result differs from the original job's", view.ID)
			}
			continue
		}
		if status != http.StatusAccepted {
			o.fail("submit: status %d", status)
			continue
		}
		o.span("submit", time.Since(start))
		final, events, running, err := c.follow(view.ID)
		if err != nil {
			o.fail("job %s events: %v", view.ID, err)
			continue
		}
		o.span("job", time.Since(start))
		if !running.IsZero() {
			o.span("queue_wait", running.Sub(start))
		}
		var sum mobisense.SweepJobResult
		if final.State != "done" || json.Unmarshal(final.Result, &sum) != nil || sum.Runs != c.w.jobRuns() || sum.Errors != 0 {
			o.fail("job %s: state %s (%s), %d/%d runs, %d errors after %d events",
				view.ID, final.State, final.Error, sum.Runs, c.w.jobRuns(), sum.Errors, events)
			continue
		}
		o.jobs++
		lastBody, lastResult = body, final.Result

		o.attempted++
		t := time.Now()
		recs, status, err := c.get("/v1/jobs/" + view.ID + "/records?format=csv")
		o.span("records", time.Since(t))
		if rows, cerr := csv.NewReader(bytes.NewReader(recs)).ReadAll(); err != nil || cerr != nil || status != http.StatusOK || len(rows) != 1+c.w.jobRuns() {
			o.fail("job %s records: status %d, %d bytes (%v, %v)", view.ID, status, len(recs), err, cerr)
		}
		o.attempted++
		t = time.Now()
		var traces struct {
			Traces []json.RawMessage `json:"traces"`
		}
		status, err = c.getJSON("/v1/jobs/"+view.ID+"/traces", &traces)
		o.span("traces", time.Since(t))
		if err != nil || status != http.StatusOK || len(traces.Traces) == 0 {
			o.fail("job %s traces: status %d, %d curves (%v)", view.ID, status, len(traces.Traces), err)
		}
		jobs = append(jobs, executedJob{id: view.ID, recordsCSV: recs})
	}
	return o, jobs
}

// follow reads a job's event stream until its terminal state, returning
// that state, the number of events seen, and when the job was first seen
// running (zero if it never was).
func (c *serveClient) follow(id string) (jobView, int, time.Time, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return jobView{}, 0, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobView{}, 0, time.Time{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	var running time.Time
	final, events, err := awaitTerminal(resp.Body, func(typ string, v jobView) {
		if running.IsZero() && (typ == "progress" || v.State == "running") {
			running = time.Now()
		}
	})
	return final, events, running, err
}

// awaitTerminal parses a server-sent event stream of job events until a
// "state" event carries a terminal state. onEvent sees every event; for
// "progress" events the view is zero. A stream that ends first is an
// error.
func awaitTerminal(r io.Reader, onEvent func(typ string, v jobView)) (jobView, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var typ string
	var data []byte
	events := 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			typ = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		case line == "" && typ != "":
			events++
			var v jobView
			if typ == "state" {
				if err := json.Unmarshal(data, &v); err != nil {
					return jobView{}, events, fmt.Errorf("state event: %w", err)
				}
			}
			onEvent(typ, v)
			if v.terminal() {
				return v, events, nil
			}
			typ, data = "", data[:0]
		}
	}
	if err := sc.Err(); err != nil {
		return jobView{}, events, err
	}
	return jobView{}, events, errors.New("event stream ended before a terminal state")
}

// verifyStore reads an executed job's store back through the remote store
// endpoints: one record per run, none failed, and a timing line per run,
// which also yields the per-run times. With readback it also reloads the
// store through LoadStores.
func (c *serveClient) verifyStore(o *outcome, id string, readback bool) {
	o.attempted++
	store := "/v1/jobs/" + id + "/store/"
	recs, rs, rerr := c.get(store + "records.jsonl")
	timing, ts, terr := c.get(store + "timing.jsonl")
	if rerr != nil || terr != nil || rs != http.StatusOK || ts != http.StatusOK {
		o.fail("job %s store: records %d (%v), timing %d (%v)", id, rs, rerr, ts, terr)
		return
	}
	o.storeBytes += int64(len(recs) + len(timing))
	var runs, times int
	for _, line := range bytes.Split(bytes.TrimSpace(recs), []byte("\n")) {
		var rec struct {
			Messages int64             `json:"messages"`
			Trace    []json.RawMessage `json:"trace"`
			Err      string            `json:"err"`
		}
		if err := json.Unmarshal(line, &rec); err != nil || rec.Err != "" || len(rec.Trace) == 0 {
			o.fail("job %s record %d: %v %s (%d trace samples)", id, runs, err, rec.Err, len(rec.Trace))
			return
		}
		runs++
		o.messages += rec.Messages
		o.coverageEvals += len(rec.Trace) + 1
	}
	for _, line := range bytes.Split(bytes.TrimSpace(timing), []byte("\n")) {
		var t struct {
			ElapsedNS int64 `json:"elapsed_ns"`
		}
		if err := json.Unmarshal(line, &t); err != nil || t.ElapsedNS <= 0 {
			o.fail("job %s timing line %d: %v", id, times, err)
			return
		}
		times++
		o.runTimes = append(o.runTimes, time.Duration(t.ElapsedNS))
	}
	if runs != c.w.jobRuns() || times != runs {
		o.fail("job %s store: %d records, %d timings, want %d", id, runs, times, c.w.jobRuns())
		return
	}
	o.runs += runs
	if readback {
		t := time.Now()
		data, err := mobisense.LoadStores(c.base + store[:len(store)-1])
		o.span("readback", time.Since(t))
		if err != nil || len(data.Runs) != runs {
			o.fail("job %s: LoadStores read %d runs (%v)", id, len(data.Runs), err)
		}
	}
}

// counters are the service's process-wide telemetry the workload reads
// before and after a pass.
type counters struct{ sse, http float64 }

func (c *serveClient) counters() (counters, error) {
	var m map[string]any
	if _, err := c.getJSON("/metrics?format=json", &m); err != nil {
		return counters{}, err
	}
	num := func(k string) float64 {
		v, _ := m[k].(float64)
		return v
	}
	return counters{
		sse:  num("sse_events_sent_total"),
		http: num(`http_requests_total{method="GET"}`) + num(`http_requests_total{method="other"}`),
	}, nil
}

func (c *serveClient) post(path string, body []byte, v any) (int, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

func (c *serveClient) get(path string) ([]byte, int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

func (c *serveClient) getJSON(path string, v any) (int, error) {
	data, status, err := c.get(path)
	if err != nil {
		return status, err
	}
	if status != http.StatusOK {
		return status, fmt.Errorf("GET %s: status %d", path, status)
	}
	return status, json.Unmarshal(data, v)
}

// jsonEqual compares two JSON documents byte for byte after compaction.
func jsonEqual(a, b json.RawMessage) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}
