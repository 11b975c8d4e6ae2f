package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// stubEngine completes every job instantly with a fixed result; the
// fingerprint is the raw request body, so distinct bodies are distinct
// computations. A non-nil gate blocks Execute until the gate closes, a
// job whose body equals poison panics, and one whose body equals
// poisonTail reports its last dispatch, waits for tailGate and panics.
type stubEngine struct {
	gate       chan struct{}
	poison     string
	poisonTail string
	tailGate   chan struct{}
}

func (e *stubEngine) Prepare(kind string, req json.RawMessage) (Prepared, error) {
	return Prepared{Fingerprint: "fp-" + string(req), TotalRuns: 1}, nil
}

func (e *stubEngine) Execute(ctx context.Context, job ExecJob) (json.RawMessage, error) {
	if e.poison != "" && string(job.Request) == e.poison {
		panic("stub engine: poison job")
	}
	if e.poisonTail != "" && string(job.Request) == e.poisonTail {
		job.Dispatched()
		select {
		case <-e.tailGate:
		case <-ctx.Done():
		}
		panic("stub engine: poison tail")
	}
	if e.gate != nil {
		select {
		case <-e.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return json.RawMessage(`{"ok":true}`), nil
}

func (e *stubEngine) Schemes() any               { return nil }
func (e *stubEngine) Scenarios() any             { return nil }
func (e *stubEngine) Axes() any                  { return nil }
func (e *stubEngine) Traces(string) (any, error) { return nil, nil }

// submitAndWait submits a job and waits for it to reach a terminal state.
func submitAndWait(t *testing.T, m *Manager, body string) JobView {
	t.Helper()
	v, err := m.Submit("run", json.RawMessage(body))
	if err != nil {
		t.Fatal(err)
	}
	return waitTerminal(t, m, v.ID)
}

// TestPanickingJobFails: a job whose execution panics ends failed with
// the panic in its error and its stack in the log, and the worker goes on
// to complete the next job. A job that panics after its last dispatch,
// with the next job already done in the slot it freed, ends failed alone.
func TestPanickingJobFails(t *testing.T) {
	var log bytes.Buffer
	tail := make(chan struct{})
	m, err := NewManager(t.TempDir(), &stubEngine{poison: `{"bad":1}`, poisonTail: `{"bad":2}`, tailGate: tail}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetLogger(slog.New(slog.NewTextHandler(&log, nil))) // the handler serializes writes
	bad := submitAndWait(t, m, `{"bad":1}`)
	if bad.State != StateFailed || !strings.Contains(bad.Error, "job panicked: stub engine: poison job") {
		t.Errorf("poison job: state %s, error %q", bad.State, bad.Error)
	}
	if good := submitAndWait(t, m, `{"good":1}`); good.State != StateDone {
		t.Errorf("next job: state %s, error %q", good.State, good.Error)
	}

	late, err := m.Submit("run", json.RawMessage(`{"bad":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if next := submitAndWait(t, m, `{"good":2}`); next.State != StateDone {
		t.Errorf("job after the dispatched one: state %s, error %q", next.State, next.Error)
	}
	if v, _ := m.Get(late.ID); v.State != StateRunning {
		t.Errorf("dispatched job: state %s before its tail ends, want running", v.State)
	}
	close(tail)
	if v := waitTerminal(t, m, late.ID); v.State != StateFailed || !strings.Contains(v.Error, "job panicked: stub engine: poison tail") {
		t.Errorf("job panicking in its tail: state %s, error %q", v.State, v.Error)
	}
	if good := submitAndWait(t, m, `{"good":3}`); good.State != StateDone {
		t.Errorf("job after the tail panic: state %s, error %q", good.State, good.Error)
	}
	m.Close() // the log is complete once the workers stop
	if !strings.Contains(log.String(), "job panicked") || !strings.Contains(log.String(), "Execute") {
		t.Errorf("log lacks the panic and its stack:\n%s", log.String())
	}
}

// TestResultCacheLRUBound: the fingerprint cache holds at most cacheSize
// entries and evicts the least recently used completed entry, so an old
// fingerprint re-executes while a fresh one still answers O(1).
func TestResultCacheLRUBound(t *testing.T) {
	m, err := NewManager(t.TempDir(), &stubEngine{}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	a := submitAndWait(t, m, `{"job":"a"}`)
	if a.CacheHit {
		t.Fatal("first submission should execute")
	}
	submitAndWait(t, m, `{"job":"b"}`)
	submitAndWait(t, m, `{"job":"c"}`) // evicts a (oldest of max 2)

	if again := submitAndWait(t, m, `{"job":"a"}`); again.CacheHit {
		t.Error("evicted fingerprint answered from the cache")
	}
	// c stayed resident (a's re-insert evicted b, the then-oldest).
	if again := submitAndWait(t, m, `{"job":"c"}`); !again.CacheHit {
		t.Error("resident fingerprint re-executed")
	}
	if again := submitAndWait(t, m, `{"job":"b"}`); again.CacheHit {
		t.Error("evicted fingerprint b answered from the cache")
	}
}

// TestResultCacheHitRefreshesLRU: a cache hit counts as use, protecting
// the entry from the next eviction.
func TestResultCacheHitRefreshesLRU(t *testing.T) {
	m, err := NewManager(t.TempDir(), &stubEngine{}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	submitAndWait(t, m, `{"job":"a"}`)
	submitAndWait(t, m, `{"job":"b"}`)
	if v := submitAndWait(t, m, `{"job":"a"}`); !v.CacheHit {
		t.Fatal("a should still be cached")
	}
	submitAndWait(t, m, `{"job":"c"}`) // must evict b, not the just-used a
	if v := submitAndWait(t, m, `{"job":"a"}`); !v.CacheHit {
		t.Error("recently hit entry was evicted")
	}
}

// TestGCPrunesFinishedJobs: the GC removes terminal jobs (and their
// directories) older than the TTL, drops their cache entries, and leaves
// running jobs alone whatever their age.
func TestGCPrunesFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	m, err := NewManager(dir, &stubEngine{gate: gate}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// A running job must survive any TTL.
	running, err := m.Submit("run", json.RawMessage(`{"job":"slow"}`))
	if err != nil {
		t.Fatal(err)
	}
	for {
		v, _ := m.Get(running.ID)
		if v.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}

	close(gate)
	done := submitAndWait(t, m, `{"job":"done"}`)

	if n := m.GC(0); n != 0 {
		t.Errorf("GC(0) removed %d jobs; want no-op", n)
	}
	if n := m.GC(time.Hour); n != 0 {
		t.Errorf("GC(1h) removed %d fresh jobs", n)
	}

	time.Sleep(20 * time.Millisecond)
	// The slow job finished when the gate closed; both terminal jobs are
	// now older than the TTL.
	submitAndWait(t, m, `{"job":"slow"}`)
	removedIDs := []string{running.ID, done.ID}
	if n := m.GC(10 * time.Millisecond); n < 2 {
		t.Fatalf("GC removed %d jobs, want >= 2", n)
	}
	for _, id := range removedIDs {
		if _, ok := m.Get(id); ok {
			t.Errorf("job %s still registered after GC", id)
		}
		if _, err := os.Stat(filepath.Join(dir, "jobs", id)); !os.IsNotExist(err) {
			t.Errorf("job %s directory survived GC", id)
		}
	}
	// The pruned jobs' cache entries are gone: resubmission executes.
	if v := submitAndWait(t, m, `{"job":"done"}`); v.CacheHit {
		t.Error("GC left a cache entry for a pruned job")
	}
}

// TestGCPrunesCancelledQueuedJob is the regression test for the
// GC-vs-queue race: a job cancelled while still queued is terminal but
// its id remains in the pending queue; pruning it must not leave the
// worker to pop an unregistered job and crash.
func TestGCPrunesCancelledQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	m, err := NewManager(t.TempDir(), &stubEngine{gate: gate}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Occupy the single worker so the next submission stays queued.
	if _, err := m.Submit("run", json.RawMessage(`{"job":"slow"}`)); err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit("run", json.RawMessage(`{"job":"queued"}`))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Cancel(queued.ID); v.State != StateCancelled {
		t.Fatalf("cancelled queued job state = %s", v.State)
	}
	time.Sleep(20 * time.Millisecond)
	if n := m.GC(10 * time.Millisecond); n != 1 {
		t.Fatalf("GC removed %d jobs, want the cancelled one", n)
	}

	// Release the worker; it must survive the stale queue entry and keep
	// executing new jobs.
	close(gate)
	if v := submitAndWait(t, m, `{"job":"after"}`); v.State != StateDone {
		t.Fatalf("post-GC job state = %s (worker dead?)", v.State)
	}
}

// TestGCKeepsCacheBackedBySurvivingJob: pruning an old job must not evict
// a cache entry that a newer, surviving done job also backs.
func TestGCKeepsCacheBackedBySurvivingJob(t *testing.T) {
	m, err := NewManager(t.TempDir(), &stubEngine{}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	old := submitAndWait(t, m, `{"job":"shared"}`)
	// Evict the fingerprint (cache size 1), then re-execute it as a
	// second, younger done job backing the same fingerprint.
	submitAndWait(t, m, `{"job":"other"}`)
	if v := submitAndWait(t, m, `{"job":"shared"}`); v.CacheHit {
		t.Fatal("fingerprint should have been evicted before the re-run")
	}

	// Age only the first job past the TTL.
	m.mu.Lock()
	m.jobs[old.ID].meta.Finished = time.Now().UTC().Add(-time.Hour)
	m.mu.Unlock()
	if n := m.GC(time.Minute); n != 1 {
		t.Fatalf("GC removed %d jobs, want only the aged one", n)
	}
	if v := submitAndWait(t, m, `{"job":"shared"}`); !v.CacheHit {
		t.Error("GC evicted a cache entry still backed by a surviving job")
	}
}
