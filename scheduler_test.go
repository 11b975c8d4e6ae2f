package mobisense

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	ifield "mobisense/internal/field"
	"mobisense/internal/server"
)

// gatedScheme runs FLOOR once the test lets it: each run announces its
// seed on runGate.started and waits until its seed's gate is released,
// so a test decides when every run ends. withGatedScheme registers it
// for one test.
const gatedScheme Scheme = "test-gated"

type runGate struct {
	started chan uint64

	mu         sync.Mutex
	gates      map[uint64]chan struct{}
	opened     bool // every gate released, including those of runs to come
	executing  map[uint64]int
	maxRunning int
}

func withGatedScheme(t *testing.T) *runGate {
	t.Helper()
	g := &runGate{
		// Sized above any test's run count: announcing a start never blocks.
		started:   make(chan uint64, 1024),
		gates:     map[uint64]chan struct{}{},
		executing: map[uint64]int{},
	}
	floor, _ := lookupScheme(SchemeFLOOR)
	registerScheme(gatedScheme, func(cfg Config, f *ifield.Field) (Result, error) {
		g.mu.Lock()
		g.executing[cfg.Seed]++
		g.maxRunning = max(g.maxRunning, g.runningLocked())
		gate := g.gateLocked(cfg.Seed)
		g.mu.Unlock()
		g.started <- cfg.Seed
		<-gate
		res, err := floor(cfg, f)
		g.mu.Lock()
		g.executing[cfg.Seed]--
		g.mu.Unlock()
		return res, err
	})
	t.Cleanup(func() {
		schemeMu.Lock()
		defer schemeMu.Unlock()
		delete(schemeRunners, gatedScheme)
	})
	return g
}

func (g *runGate) gateLocked(seed uint64) chan struct{} {
	ch, ok := g.gates[seed]
	if !ok {
		ch = make(chan struct{})
		if g.opened {
			close(ch)
		}
		g.gates[seed] = ch
	}
	return ch
}

func (g *runGate) releaseLocked(seed uint64) {
	ch := g.gateLocked(seed)
	select {
	case <-ch:
	default:
		close(ch)
	}
}

func (g *runGate) runningLocked() int {
	n := 0
	for _, k := range g.executing {
		n += k
	}
	return n
}

// release lets the runs of the given seeds finish, now or when they start.
func (g *runGate) release(seeds ...uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range seeds {
		g.releaseLocked(s)
	}
}

// open releases every gate, now and for runs still to start.
func (g *runGate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.opened = true
	for s := range g.gates {
		g.releaseLocked(s)
	}
}

// next returns the seed of the next run to start.
func (g *runGate) next(t *testing.T) uint64 {
	t.Helper()
	select {
	case s := <-g.started:
		return s
	case <-time.After(30 * time.Second):
		t.Fatal("no run started")
		return 0
	}
}

// quiet fails the test if a run starts within a short wait.
func (g *runGate) quiet(t *testing.T) {
	t.Helper()
	select {
	case s := <-g.started:
		t.Fatalf("run %d started unexpectedly", s)
	case <-time.After(50 * time.Millisecond):
	}
}

func (g *runGate) isExecuting(seed uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.executing[seed] > 0
}

// gatedSweepBody is a sweep of the gated scheme; seed makes it unique.
func gatedSweepBody(repeats int, seed uint64) string {
	return string(mustJSON(SweepRequest{
		RunRequest: RunRequest{Scheme: string(gatedScheme), N: 20, Duration: 40, Seed: seed},
		Repeats:    repeats,
	}))
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// sweepSeeds returns the run seeds of a sweep request in dispatch order.
func sweepSeeds(t *testing.T, body string) []uint64 {
	t.Helper()
	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	sw, err := req.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, len(specs))
	for i, sp := range specs {
		seeds[i] = sp.Seed
	}
	return seeds
}

// service starts a service on dir and closes it when the test ends,
// opening every gate first so that a test which stops early leaves no run
// waiting for the close.
func (g *runGate) service(t *testing.T, dir string, workers, jobs int) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := NewService(dir, ServiceOptions{Workers: workers, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		g.open()
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// storeBytes returns a job store's deterministic files, manifest then
// records.
func storeBytes(t *testing.T, dataDir, id string) []byte {
	t.Helper()
	var out []byte
	for _, file := range []string{"manifest.json", "records.jsonl"} {
		data, err := os.ReadFile(filepath.Join(dataDir, "jobs", id, "store", file))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

func deleteJob(t *testing.T, base, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestServiceRunsJobsBackToBack: with one dispatch slot and two workers,
// two queued 3-run jobs share the run pool. Runs start in (job, index)
// order, never more than two execute at once, the second job's first run
// takes the worker the first job's second run frees while the first
// job's last run still executes, and both stores are byte-identical to
// the same sweeps run alone on one worker.
func TestServiceRunsJobsBackToBack(t *testing.T) {
	g := withGatedScheme(t)
	dir := t.TempDir()
	_, ts := g.service(t, dir, 2, 1)

	bodyA, bodyB := gatedSweepBody(3, 11), gatedSweepBody(3, 12)
	a, b := sweepSeeds(t, bodyA), sweepSeeds(t, bodyB)
	jobA, _ := postJSON(t, ts.URL+"/v1/sweeps", bodyA)
	jobB, _ := postJSON(t, ts.URL+"/v1/sweeps", bodyB)

	// A's first two runs start at once, one per worker, and nothing else.
	first := []uint64{g.next(t), g.next(t)}
	slices.Sort(first)
	want := slices.Clone(a[:2])
	slices.Sort(want)
	if !slices.Equal(first, want) {
		t.Fatalf("first runs %v, want A's runs 0 and 1 %v", first, want)
	}
	g.quiet(t)
	// Each later start follows the one run the test lets finish.
	steps := []struct {
		finish, starts uint64
		name           string
	}{
		{a[0], a[2], "A2"},
		{a[1], b[0], "B0"},
		{a[2], b[1], "B1"},
		{b[0], b[2], "B2"},
	}
	for _, st := range steps {
		g.release(st.finish)
		if s := g.next(t); s != st.starts {
			t.Fatalf("run %d started, want %s (%d)", s, st.name, st.starts)
		}
		if st.name == "B0" && !g.isExecuting(a[2]) {
			t.Error("B's first run should start while A's last run executes")
		}
	}
	g.release(b[1], b[2])
	waitState(t, ts.URL, jobA.ID, server.StateDone)
	waitState(t, ts.URL, jobB.ID, server.StateDone)
	g.mu.Lock()
	peak := g.maxRunning
	g.mu.Unlock()
	if peak > 2 {
		t.Errorf("%d runs executed at once on 2 workers", peak)
	}

	refDir := t.TempDir()
	_, refTS := g.service(t, refDir, 1, 1)
	for _, job := range []struct {
		id, body string
	}{{jobA.ID, bodyA}, {jobB.ID, bodyB}} {
		v, _ := postJSON(t, refTS.URL+"/v1/sweeps", job.body)
		waitState(t, refTS.URL, v.ID, server.StateDone)
		if got, want := storeBytes(t, dir, job.id), storeBytes(t, refDir, v.ID); !bytes.Equal(got, want) {
			t.Errorf("job %s store differs from the same sweep alone on one worker:\n%s\n---\n%s", job.id, got, want)
		}
	}
}

// TestServiceCancelInTail: cancelling a job whose runs are all dispatched
// keeps every record it finishes and leaves the next job running.
func TestServiceCancelInTail(t *testing.T) {
	g := withGatedScheme(t)
	dir := t.TempDir()
	_, ts := g.service(t, dir, 2, 1)

	bodyA, bodyB := gatedSweepBody(3, 21), gatedSweepBody(3, 22)
	a, b := sweepSeeds(t, bodyA), sweepSeeds(t, bodyB)
	jobA, _ := postJSON(t, ts.URL+"/v1/sweeps", bodyA)
	jobB, _ := postJSON(t, ts.URL+"/v1/sweeps", bodyB)
	g.next(t)
	g.next(t)
	g.release(a[0])
	g.next(t) // A2: A is in its tail
	g.release(a[1])
	if s := g.next(t); s != b[0] {
		t.Fatalf("run %d started, want B's first", s)
	}

	deleteJob(t, ts.URL, jobA.ID)
	g.release(a[2])
	waitState(t, ts.URL, jobA.ID, server.StateCancelled)
	recs, err := os.ReadFile(filepath.Join(dir, "jobs", jobA.ID, "store", "records.jsonl"))
	if err != nil || countLines(recs) != 3 {
		t.Errorf("cancelled tail job kept %d records (%v), want 3", countLines(recs), err)
	}
	if v := getJob(t, ts.URL, jobB.ID); v.State != server.StateRunning {
		t.Fatalf("next job is %s after the cancel, want running", v.State)
	}
	g.release(b...)
	done := waitState(t, ts.URL, jobB.ID, server.StateDone)
	var sum SweepJobResult
	if err := json.Unmarshal(done.Result, &sum); err != nil || sum.Runs != 3 {
		t.Errorf("next job result %s (%v), want 3 runs", done.Result, err)
	}
}

// TestServiceCloseInTail: closing the service while a job finishes its
// last runs re-queues the job, as it does the next job waiting to
// dispatch, and a restart completes the first from its store without
// running anything again and runs the second.
func TestServiceCloseInTail(t *testing.T) {
	g := withGatedScheme(t)
	dir := t.TempDir()
	svc, ts := g.service(t, dir, 2, 1)

	bodyA, bodyB := gatedSweepBody(3, 31), gatedSweepBody(3, 32)
	a, b := sweepSeeds(t, bodyA), sweepSeeds(t, bodyB)
	jobA, _ := postJSON(t, ts.URL+"/v1/sweeps", bodyA)
	jobB, _ := postJSON(t, ts.URL+"/v1/sweeps", bodyB)
	g.next(t)
	g.next(t)
	g.release(a[0])
	g.next(t) // A's last run: A is in its tail
	waitState(t, ts.URL, jobB.ID, server.StateRunning)

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	// B waits to dispatch on a pool A's runs fill, so it ends only once
	// Close has cancelled the jobs; A's last runs finish after that.
	deadline := time.Now().Add(time.Minute)
	for jobFileState(t, dir, jobB.ID) != server.StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("the waiting job did not re-queue on close")
		}
		time.Sleep(time.Millisecond)
	}
	g.release(a[1:]...)
	<-closed
	if st := jobFileState(t, dir, jobA.ID); st != server.StateQueued {
		t.Fatalf("job.json of the job in its tail reads %q after close, want queued", st)
	}

	g.release(b...)
	_, ts2 := g.service(t, dir, 2, 1)
	for _, id := range []string{jobA.ID, jobB.ID} {
		done := waitState(t, ts2.URL, id, server.StateDone)
		var sum SweepJobResult
		if err := json.Unmarshal(done.Result, &sum); err != nil || sum.Runs != 3 {
			t.Errorf("resumed job %s result %s (%v), want 3 runs", id, done.Result, err)
		}
	}
	started := []uint64{g.next(t), g.next(t), g.next(t)}
	slices.Sort(started)
	want := slices.Clone(b)
	slices.Sort(want)
	if !slices.Equal(started, want) {
		t.Errorf("the restart ran %v, want B's runs %v and none of A's", started, want)
	}
	g.quiet(t)
}

// jobFileState reads a job's persisted state from its job.json.
func jobFileState(t *testing.T, dataDir, id string) server.JobState {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dataDir, "jobs", id, "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta struct{ State server.JobState }
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	return meta.State
}
