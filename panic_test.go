package mobisense

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ifield "mobisense/internal/field"
	"mobisense/internal/server"
)

// panicScheme stands in for a scheme with a bug: it panics on panicSeed
// and runs FLOOR otherwise. withPanicScheme registers it for one test.
const (
	panicScheme Scheme = "test-panic"
	panicSeed   uint64 = 4242
)

func withPanicScheme(t *testing.T) {
	t.Helper()
	floor, _ := lookupScheme(SchemeFLOOR)
	registerScheme(panicScheme, func(cfg Config, f *ifield.Field) (Result, error) {
		if cfg.Seed == panicSeed {
			panic("core: step of 9 m exceeds speed limit 2.000001 m for sensor 0")
		}
		return floor(cfg, f)
	})
	t.Cleanup(func() {
		schemeMu.Lock()
		defer schemeMu.Unlock()
		delete(schemeRunners, panicScheme)
	})
}

// TestBatchIsolatesPanickingRun: a run that panics fails alone. A 3-run
// batch returns two results and one error that names the panic, with the
// stack beside it in its BatchResult, and the store holds the error
// without the stack, byte-identical at 1 and 3 workers.
func TestBatchIsolatesPanickingRun(t *testing.T) {
	withPanicScheme(t)
	var cfgs []Config
	for _, seed := range []uint64{1, panicSeed, 2} {
		cfg := sweepConfig()
		cfg.Scheme, cfg.Seed, cfg.N, cfg.Duration = panicScheme, seed, 20, 40
		cfgs = append(cfgs, cfg)
	}
	var stores [2][]byte
	for k, workers := range []int{1, 3} {
		dir := filepath.Join(t.TempDir(), "store")
		out, err := RunBatch(context.Background(), cfgs, BatchOptions{Workers: workers, Store: &Store{Dir: dir}})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		for i, br := range out {
			switch {
			case i == 1 && (br.Err == nil || br.Err.Error() != "mobisense: run panicked: core: step of 9 m exceeds speed limit 2.000001 m for sensor 0"):
				t.Errorf("%d workers: panicking run's error = %v", workers, br.Err)
			case i == 1 && !bytes.Contains(br.Stack, []byte("runIsolated")):
				t.Errorf("%d workers: panicking run's stack = %q", workers, br.Stack)
			case i != 1 && (br.Err != nil || br.Stack != nil || br.Result.Coverage <= 0):
				t.Errorf("%d workers: run %d = %+v, want a result", workers, i, br)
			}
		}
		for _, file := range []string{"manifest.json", "records.jsonl"} {
			data, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil {
				t.Fatal(err)
			}
			stores[k] = append(stores[k], data...)
		}
		if !bytes.Contains(stores[k], []byte("run panicked")) || bytes.Contains(stores[k], []byte("goroutine")) {
			t.Errorf("%d workers: the store must carry the panic's error and not its stack:\n%s", workers, stores[k])
		}
	}
	if !bytes.Equal(stores[0], stores[1]) {
		t.Errorf("store bytes differ between 1 and 3 workers:\n%s\n---\n%s", stores[0], stores[1])
	}
}

// TestServedPanickingRunFails: a served job whose run panics ends failed
// with the panic in its error, the service log gets the run's stack, and
// the service goes on to complete the next job.
func TestServedPanickingRunFails(t *testing.T) {
	withPanicScheme(t)
	var log bytes.Buffer
	svc, err := NewService(t.TempDir(), ServiceOptions{Workers: 1, Logger: slog.New(slog.NewTextHandler(&log, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Close()
	bad, status := postJSON(t, ts.URL+"/v1/runs", `{"scheme":"test-panic","n":20,"duration":40,"seed":4242}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	if v := waitState(t, ts.URL, bad.ID, server.StateFailed); !strings.Contains(v.Error, "mobisense: run panicked: core: step of 9 m") {
		t.Errorf("failed job's error = %q", v.Error)
	}
	good, _ := postJSON(t, ts.URL+"/v1/runs", `{"scheme":"test-panic","n":20,"duration":40,"seed":1}`)
	waitState(t, ts.URL, good.ID, server.StateDone)
	svc.Close() // the log is complete once the workers stop
	if !strings.Contains(log.String(), "run panicked") || !strings.Contains(log.String(), "runIsolated") {
		t.Errorf("service log lacks the run's panic and stack:\n%s", log.String())
	}
}
