package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobisense"
)

// TestRunFlags: run rejects a bad flag and a command line without store
// arguments with exit code 2 and a message on stderr, and prints usage
// for -h with exit code 0.
func TestRunFlags(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"bad flag", []string{"-no-such-flag"}, 2, "no-such-flag"},
		{"help", []string{"-h"}, 0, "-watch"},
		{"no stores", nil, 2, "usage: report"},
		{"flags but no stores", []string{"-runs"}, 2, "usage: report"},
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

// TestRunPreSpecStores: stores written before field specs existed (name-
// only manifests without axes, testdata/preaxis) still load alone and
// merge as shards, and -fields says they carry no specs.
func TestRunPreSpecStores(t *testing.T) {
	shard := func(i string) string { return filepath.Join("..", "..", "testdata", "preaxis", "shard"+i) }
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"one shard", []string{shard("0")}, []string{"shard 0/2", "floor"}},
		{"merged shards", []string{shard("0"), shard("1")}, []string{"shard 0/2", "shard 1/2", "floor"}},
		{"fields", []string{"-fields", shard("0")}, []string{"predates"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
			}
			for _, want := range tc.want {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
		})
	}
}

// TestRunAxisCSVColumns: -csv names one axis_<name> column per swept
// axis, numeric and string-valued alike, and writes string values as
// they are.
func TestRunAxisCSVColumns(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		scheme mobisense.Scheme
		axes   []mobisense.ParamAxis
		want   []string
	}{
		{"rc x ttl", mobisense.SchemeFLOOR,
			[]mobisense.ParamAxis{mobisense.AxisRc(50, 60), mobisense.AxisFloorTTL(4, 6)},
			[]string{"axis_rc,axis_floor.ttl"}},
		{"osc", mobisense.SchemeCPVF,
			[]mobisense.ParamAxis{mustAxis(t, "cpvf.osc=none,two-step")},
			[]string{"axis_cpvf.osc", "two-step"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := mobisense.DefaultConfig(tc.scheme)
			base.N, base.Duration = 20, 60
			store := filepath.Join(dir, string(tc.scheme)+"-store")
			sweep := mobisense.Sweep{Base: base, Scenarios: []string{"free"}, Axes: tc.axes, Repeats: 2, Seed: 9}
			if _, err := sweep.Run(context.Background(), mobisense.BatchOptions{Store: &mobisense.Store{Dir: store}}); err != nil {
				t.Fatal(err)
			}
			csv := filepath.Join(dir, string(tc.scheme)+".csv")
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-csv", csv, store}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
			}
			data, err := os.ReadFile(csv)
			if err != nil {
				t.Fatal(err)
			}
			header, body, _ := strings.Cut(string(data), "\n")
			if !strings.Contains(header, tc.want[0]) {
				t.Errorf("header %q lacks %q", header, tc.want[0])
			}
			for _, w := range tc.want[1:] {
				if !strings.Contains(body, w) {
					t.Errorf("rows lack %q:\n%s", w, body)
				}
			}
		})
	}
}

func mustAxis(t *testing.T, spec string) mobisense.ParamAxis {
	t.Helper()
	ax, err := mobisense.ParseAxis(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ax
}

// floorSweep is a small FLOOR sweep over seeded random obstacles.
func floorSweep() mobisense.Sweep {
	base := mobisense.DefaultConfig(mobisense.SchemeFLOOR)
	base.N, base.Duration = 20, 60
	return mobisense.Sweep{Base: base, Scenarios: []string{"random"}, Repeats: 6, Seed: 9}
}

// report runs the command in-process, fails the test unless it exits 0,
// and returns its stdout.
func report(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("report %s: exit code %d; stderr:\n%s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

// TestRunWatchFailsWhenStoreDisappears: a store that -watch has read and
// that then vanishes mid-watch (deleted, or its server job pruned) fails
// the watch with exit code 1 and says so, rather than waiting forever for
// it to complete. The store holds 2 of its 4 runs, and the directory is
// removed inside the first poll's write of its totals, so the next poll
// finds it gone.
func TestRunWatchFailsWhenStoreDisappears(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gone")
	sweep := floorSweep()
	sweep.Repeats = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	opts := mobisense.BatchOptions{Workers: 1, Store: &mobisense.Store{Dir: dir}, OnProgress: func(int, int) {
		if done++; done == 2 {
			cancel()
		}
	}}
	if _, err := sweep.Run(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep stopped after 2 runs with %v, want context.Canceled", err)
	}
	if p, err := mobisense.ReadStoreProgress(dir); err != nil || p.Done != 2 || p.Total != 4 {
		t.Fatalf("store progress %d/%d (%v), want 2/4", p.Done, p.Total, err)
	}

	stdout := &removeOnTotal{dir: dir}
	var stderr bytes.Buffer
	watched := make(chan int, 1)
	go func() { watched <- run([]string{"-watch", "-interval", "20ms", dir}, stdout, &stderr) }()
	select {
	case code := <-watched:
		if code != 1 {
			t.Errorf("exit code %d, want 1; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(time.Minute):
		t.Fatal("-watch did not exit after its store disappeared")
	}
	if !stdout.removed {
		t.Error("the watch never printed a total, so the store was not removed mid-watch")
	}
	if !strings.Contains(stderr.String(), "disappeared mid-watch") {
		t.Errorf("stderr lacks the disappearance:\n%s", stderr.String())
	}
}

// removeOnTotal is -watch's stdout: it removes the store directory while
// the first poll writes its total line.
type removeOnTotal struct {
	dir     string
	removed bool
}

func (w *removeOnTotal) Write(p []byte) (int, error) {
	if !w.removed && bytes.Contains(p, []byte("total: ")) {
		if err := os.RemoveAll(w.dir); err != nil {
			return 0, err
		}
		w.removed = true
	}
	return len(p), nil
}

// TestRunShardsMergeToUnshardedCSV: the shard stores 0/2 and 1/2 of a
// traced sweep, written at other worker counts, merge to the unsharded
// store's -csv (convergence columns included) and -traces curves byte
// for byte, and the merged table lists the scheme.
func TestRunShardsMergeToUnshardedCSV(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	sweep := floorSweep()
	sweep.Base.Trace = &mobisense.TraceOptions{Stride: 20}
	for name, shard := range map[string]mobisense.Shard{"full": {}, "s0": {Index: 0, Count: 2}, "s1": {Index: 1, Count: 2}} {
		opts := mobisense.BatchOptions{Workers: 1 + shard.Index, Shard: shard, Store: &mobisense.Store{Dir: path(name), Trace: true}}
		if _, err := sweep.Run(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
	}
	report(t, "-csv", path("full.csv"), "-traces", path("full-traces.csv"), path("full"))
	if out := report(t, "-csv", path("merged.csv"), "-traces", path("merged-traces.csv"), path("s0"), path("s1")); !strings.Contains(out, "floor") {
		t.Errorf("merged table lacks the scheme:\n%s", out)
	}
	for _, tc := range []struct{ full, merged, header string }{
		{"full.csv", "merged.csv", "settle_mean"},
		{"full-traces.csv", "merged-traces.csv", "scheme,scenario,n,axes,t,runs,coverage_mean"},
	} {
		full, err := os.ReadFile(path(tc.full))
		if err != nil {
			t.Fatal(err)
		}
		merged, err := os.ReadFile(path(tc.merged))
		if err != nil {
			t.Fatal(err)
		}
		if header, _, _ := strings.Cut(string(full), "\n"); !strings.Contains(header, tc.header) {
			t.Errorf("%s header %q lacks %q", tc.full, header, tc.header)
		}
		if !bytes.Equal(full, merged) {
			t.Errorf("merged shards' %s differs from the unsharded store's:\n%s\nwant:\n%s", tc.merged, merged, full)
		}
	}
}

// TestRunWatchesServedStore: -watch follows a serve job's store over the
// /v1/jobs/{id}/store endpoints from submission until it completes, and
// report of the URL merges the finished store.
func TestRunWatchesServedStore(t *testing.T) {
	svc, err := mobisense.NewService(t.TempDir(), mobisense.ServiceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Close()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"scheme":"floor","scenario":"free","n":24,"duration":90,"repeats":8,"seed":9,"trace":30}`))
	if err != nil {
		t.Fatal(err)
	}
	var job struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	url := ts.URL + "/v1/jobs/" + job.ID + "/store"
	var stdout, stderr bytes.Buffer
	watched := make(chan int, 1)
	go func() { watched <- run([]string{"-watch", "-interval", "20ms", url}, &stdout, &stderr) }()
	select {
	case code := <-watched:
		if code != 0 || !strings.Contains(stdout.String(), "total: 8/8 runs, complete") {
			t.Errorf("exit code %d; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("-watch of the served store did not exit")
	}
	if out := report(t, url); !strings.Contains(out, "merged: 8 runs") || !strings.Contains(out, "floor") {
		t.Errorf("report of the served store:\n%s", out)
	}
}

// TestRunWatchExitsOnComplete: -watch polls a store while a sweep writes
// it and exits 0 once the store completes.
func TestRunWatchExitsOnComplete(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	swept := make(chan error, 1)
	go func() {
		_, err := floorSweep().Run(context.Background(), mobisense.BatchOptions{Workers: 2, Store: &mobisense.Store{Dir: dir}})
		swept <- err
	}()
	var stdout, stderr bytes.Buffer
	watched := make(chan int, 1)
	go func() { watched <- run([]string{"-watch", "-interval", "20ms", dir}, &stdout, &stderr) }()
	select {
	case code := <-watched:
		if code != 0 {
			t.Errorf("exit code %d; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("-watch did not exit after the store completed")
	}
	if err := <-swept; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "total: 6/6 runs, complete") {
		t.Errorf("watch output lacks the completed total:\n%s", stdout.String())
	}
}
