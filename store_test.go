package mobisense

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// storeSweep is a small mixed sweep used by the persistence tests.
func storeSweep() Sweep {
	return Sweep{
		Base:      sweepConfig(),
		Schemes:   []Scheme{SchemeCPVF, SchemeFLOOR},
		Scenarios: []string{"free", "random-obstacles"},
		Ns:        []int{20, 30},
		Repeats:   2,
		Seed:      42,
	}
}

// TestStoreDeterministicBytesAcrossWorkers is the satellite determinism
// check: the same sweep stored at -workers 1 and -workers 8 must produce
// byte-identical manifest and records files. Wall-clock time lives only in
// the timing.jsonl sidecar, and records flush in dispatch order, so the
// deterministic files cannot depend on scheduling.
func TestStoreDeterministicBytesAcrossWorkers(t *testing.T) {
	sweep := storeSweep()
	dirs := [2]string{filepath.Join(t.TempDir(), "w1"), filepath.Join(t.TempDir(), "w8")}
	for i, workers := range []int{1, 8} {
		_, err := sweep.Run(context.Background(), BatchOptions{
			Workers: workers,
			Store:   &Store{Dir: dirs[i]},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, file := range []string{"manifest.json", "records.jsonl"} {
		a, err := os.ReadFile(filepath.Join(dirs[0], file))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between workers=1 and workers=8", file)
		}
	}
	if len(bytesOrEmpty(t, dirs[0], "records.jsonl")) == 0 {
		t.Fatal("records.jsonl is empty")
	}
}

func bytesOrEmpty(t *testing.T, dir, file string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoreInterruptResume is the acceptance check for resumability: a
// sweep cancelled partway keeps its finished runs on disk, and re-running
// with Resume executes only the missing runs yet reproduces the
// uninterrupted sweep's aggregates exactly.
func TestStoreInterruptResume(t *testing.T) {
	sweep := storeSweep()
	want, err := sweep.Run(context.Background(), BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := len(want.Runs)

	dir := filepath.Join(t.TempDir(), "store")
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	stopAt := total / 3
	_, err = sweep.Run(ctx, BatchOptions{
		Workers: 2,
		Store:   &Store{Dir: dir},
		OnProgress: func(done, _ int) {
			mu.Lock()
			defer mu.Unlock()
			if done >= stopAt {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep err = %v, want context.Canceled", err)
	}
	partial, err := LoadStores(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(partial.Runs) == 0 || len(partial.Runs) >= total {
		t.Fatalf("interrupted store holds %d of %d runs; want a proper subset", len(partial.Runs), total)
	}
	stored := len(partial.Runs)

	// Resume: only the missing runs may execute.
	executed := 0
	resumed, err := sweep.Run(context.Background(), BatchOptions{
		Workers: 2,
		Store:   &Store{Dir: dir, Resume: true},
		OnProgress: func(done, tot int) {
			mu.Lock()
			defer mu.Unlock()
			executed++
			if tot != total {
				t.Errorf("progress total = %d, want %d", tot, total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if executed != total-stored {
		t.Errorf("resume executed %d runs, want %d (=%d total - %d stored)", executed, total-stored, total, stored)
	}
	if !reflect.DeepEqual(resumed.Aggregates, want.Aggregates) {
		t.Errorf("resumed aggregates differ from uninterrupted run:\nresumed: %+v\nwant:    %+v",
			resumed.Aggregates, want.Aggregates)
	}

	// The completed store must load back to the same aggregates too.
	final, err := LoadStores(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final.Aggregates, want.Aggregates) {
		t.Errorf("stored aggregates differ from live run:\nstored: %+v\nwant:   %+v",
			final.Aggregates, want.Aggregates)
	}
	if !final.Stores[0].Complete {
		t.Error("manifest should be marked complete after resume")
	}
	// Resuming a complete store executes nothing.
	executed = 0
	if _, err := sweep.Run(context.Background(), BatchOptions{
		Store:      &Store{Dir: dir, Resume: true},
		OnProgress: func(int, int) { mu.Lock(); executed++; mu.Unlock() },
	}); err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Errorf("resume of a complete store executed %d runs", executed)
	}
}

// TestShardMergeReproducesUnsharded is the acceptance check for sharding:
// running the same sweep as two shards into two stores and merging them
// with LoadStores (what cmd/report does) reproduces the unsharded sweep's
// aggregates bit for bit.
func TestShardMergeReproducesUnsharded(t *testing.T) {
	sweep := storeSweep()
	base := t.TempDir()
	full := filepath.Join(base, "full")
	want, err := sweep.Run(context.Background(), BatchOptions{Store: &Store{Dir: full}})
	if err != nil {
		t.Fatal(err)
	}

	shardDirs := []string{filepath.Join(base, "shard0"), filepath.Join(base, "shard1")}
	for i, dir := range shardDirs {
		sr, err := sweep.Run(context.Background(), BatchOptions{
			Store: &Store{Dir: dir},
			Shard: Shard{Index: i, Count: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.Runs) == 0 || len(sr.Runs) >= len(want.Runs) {
			t.Fatalf("shard %d ran %d of %d runs", i, len(sr.Runs), len(want.Runs))
		}
	}

	merged, err := LoadStores(shardDirs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Runs) != len(want.Runs) {
		t.Fatalf("merged %d runs, want %d", len(merged.Runs), len(want.Runs))
	}
	if !reflect.DeepEqual(merged.Aggregates, want.Aggregates) {
		t.Errorf("merged shard aggregates differ from unsharded run:\nmerged: %+v\nwant:   %+v",
			merged.Aggregates, want.Aggregates)
	}

	// And they match the unsharded store read back from disk.
	fullData, err := LoadStores(full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Aggregates, fullData.Aggregates) {
		t.Error("merged shard aggregates differ from the unsharded store")
	}
}

// TestBatchShardMerge: plain RunBatch (explicit config lists) shards and
// merges the same way sweeps do — the manifest fingerprint covers the
// full batch, not the shard's slice.
func TestBatchShardMerge(t *testing.T) {
	cfgs := make([]Config, 6)
	for i := range cfgs {
		cfgs[i] = sweepConfig()
		cfgs[i].Seed = uint64(i + 1)
		cfgs[i].Rc = 50 + 10*float64(i%2) // two distinct configurations
	}
	base := t.TempDir()
	full := filepath.Join(base, "full")
	want, err := RunBatch(context.Background(), cfgs, BatchOptions{Store: &Store{Dir: full}})
	if err != nil {
		t.Fatal(err)
	}
	shardDirs := []string{filepath.Join(base, "b0"), filepath.Join(base, "b1")}
	for i, dir := range shardDirs {
		if _, err := RunBatch(context.Background(), cfgs, BatchOptions{
			Store: &Store{Dir: dir},
			Shard: Shard{Index: i, Count: 2},
		}); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := LoadStores(shardDirs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Runs) != len(want) {
		t.Fatalf("merged %d runs, want %d", len(merged.Runs), len(want))
	}
	// A shard with no runs of its own (more shards than runs) still leaves
	// a complete zero-run store behind, so merges see every shard.
	empty := filepath.Join(base, "empty")
	if _, err := RunBatch(context.Background(), cfgs[:1], BatchOptions{
		Store: &Store{Dir: empty},
		Shard: Shard{Index: 3, Count: 4},
	}); err != nil {
		t.Fatal(err)
	}
	emptyData, err := LoadStores(empty)
	if err != nil {
		t.Fatalf("empty shard store unreadable: %v", err)
	}
	if !emptyData.Stores[0].Complete || emptyData.Stores[0].TotalRuns != 0 {
		t.Errorf("empty shard store = %+v; want complete with 0 runs", emptyData.Stores[0])
	}
	fullData, err := LoadStores(full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Aggregates, fullData.Aggregates) {
		t.Error("merged batch-shard aggregates differ from the unsharded store")
	}
}

func TestStoreMisuse(t *testing.T) {
	sweep := storeSweep()
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := sweep.Run(context.Background(), BatchOptions{Store: &Store{Dir: dir}}); err != nil {
		t.Fatal(err)
	}

	// Re-running without Resume must refuse to touch the existing store.
	if _, err := sweep.Run(context.Background(), BatchOptions{Store: &Store{Dir: dir}}); err == nil {
		t.Error("overwriting an existing store without Resume should error")
	}

	// Resuming with a different sweep must be refused.
	other := sweep
	other.Seed = 7
	if _, err := other.Run(context.Background(), BatchOptions{Store: &Store{Dir: dir, Resume: true}}); err == nil {
		t.Error("resuming a different sweep should error")
	}
	// ... including a same-axes sweep with different base parameters.
	tweaked := sweep
	tweaked.Base.Rc = 90
	if _, err := tweaked.Run(context.Background(), BatchOptions{Store: &Store{Dir: dir, Resume: true}}); err == nil {
		t.Error("resuming with a different base config should error")
	}

	// Merging stores of different sweeps must be refused.
	otherDir := filepath.Join(t.TempDir(), "other")
	if _, err := other.Run(context.Background(), BatchOptions{Store: &Store{Dir: otherDir}}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStores(dir, otherDir); err == nil {
		t.Error("merging different sweeps should error")
	}
	if _, err := LoadStores(); err == nil {
		t.Error("LoadStores with no dirs should error")
	}

	// A store without a directory is an error, not a silent no-op.
	if _, err := sweep.Run(context.Background(), BatchOptions{Store: &Store{}}); err == nil {
		t.Error("store without a directory should error")
	}
}

// TestStoreLayoutsRoundTrip: with Store.Layouts, every run's initial and
// final sensor layouts persist in its record and replay identically on
// resume — the property that makes fig11-style layout post-processing
// replayable from disk.
func TestStoreLayoutsRoundTrip(t *testing.T) {
	sweep := Sweep{
		Base:      sweepConfig(),
		Schemes:   []Scheme{SchemeFLOOR},
		Scenarios: []string{"free"},
		Repeats:   2,
		Seed:      11,
	}
	dir := filepath.Join(t.TempDir(), "store")
	live, err := sweep.Run(context.Background(), BatchOptions{Store: &Store{Dir: dir, Layouts: true}})
	if err != nil {
		t.Fatal(err)
	}

	executed := 0
	replayed, err := sweep.Run(context.Background(), BatchOptions{
		Store:      &Store{Dir: dir, Resume: true, Layouts: true},
		OnProgress: func(int, int) { executed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Fatalf("replay executed %d runs, want 0", executed)
	}
	for i, br := range replayed.Runs {
		want := live.Runs[i].Result
		if len(br.Result.Positions) == 0 || !reflect.DeepEqual(br.Result.Positions, want.Positions) {
			t.Errorf("run %d replayed final layout differs (got %d positions, want %d)",
				i, len(br.Result.Positions), len(want.Positions))
		}
		if len(br.Result.InitialPositions) == 0 ||
			!reflect.DeepEqual(br.Result.InitialPositions, want.InitialPositions) {
			t.Errorf("run %d replayed initial layout differs", i)
		}
	}

	// LoadStores restores the layouts too.
	data, err := LoadStores(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, br := range data.Runs {
		if !reflect.DeepEqual(br.Result.Positions, live.Runs[i].Result.Positions) {
			t.Errorf("loaded run %d final layout differs", i)
		}
	}

	// Resuming across the Layouts flag is refused: the store would end up
	// with records of inconsistent replay fidelity.
	if _, err := sweep.Run(context.Background(), BatchOptions{
		Store: &Store{Dir: dir, Resume: true},
	}); err == nil {
		t.Error("resuming a layouts store without Layouts should error")
	}
}

// TestStoreRecordsFailedRuns: deterministic per-run failures (here: VOR on
// an obstacle scenario) are persisted and replayed on resume rather than
// retried.
func TestStoreRecordsFailedRuns(t *testing.T) {
	sweep := Sweep{
		Base:      sweepConfig(),
		Schemes:   []Scheme{SchemeVOR},
		Scenarios: []string{"two-obstacles"},
		Repeats:   2,
		Seed:      5,
	}
	dir := filepath.Join(t.TempDir(), "store")
	sr, err := sweep.Run(context.Background(), BatchOptions{Store: &Store{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range sr.Runs {
		if br.Err == nil {
			t.Fatal("VOR on obstacles should fail by design")
		}
	}
	executed := 0
	resumed, err := sweep.Run(context.Background(), BatchOptions{
		Store:      &Store{Dir: dir, Resume: true},
		OnProgress: func(int, int) { executed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Errorf("resume retried %d deterministic failures", executed)
	}
	for i, br := range resumed.Runs {
		if br.Err == nil || br.Err.Error() != sr.Runs[i].Err.Error() {
			t.Errorf("run %d replayed error = %v, want %v", i, br.Err, sr.Runs[i].Err)
		}
	}
	data, err := LoadStores(dir)
	if err != nil {
		t.Fatal(err)
	}
	if data.Aggregates[0].Errors != 2 {
		t.Errorf("stored aggregate errors = %d, want 2", data.Aggregates[0].Errors)
	}
}
