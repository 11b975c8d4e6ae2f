package mobisense

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// TestObstacleSweepStoreGolden pins the exact stored bytes of three
// sweeps: an untraced obstacle-heavy one; a traced one with sensor
// failures, whose per-sample coverage runs through the incremental
// tracker's re-seeds and disk updates; and a long, walk-heavy one whose
// FLOOR runs send 300k+ invitation hops each through the neighbor-query
// layer. Every geometry, coverage and neighbor-query fast path is an
// exact rewrite of a brute-force reference (the package oracles in
// internal/field, internal/coverage, internal/spatial and internal/core),
// so a change to any of them must leave these digests untouched. The test
// also re-runs each spec on its own through Run, which seeds its coverage
// outside the batch's shared estimator cache, and requires the same
// coverage and trace as the batch.
func TestObstacleSweepStoreGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other architectures may fuse multiply-adds (FMA), changing float bits")
	}
	base := sweepConfig()
	base.Duration = 60
	traced := base
	traced.Trace = &TraceOptions{Stride: 5}
	traced.Failures = &FailureOptions{Interval: 20, MaxKills: 3}
	walks := sweepConfig()
	walks.Duration = 400
	obstacles := []string{"narrow-door", "random-obstacles"}
	cases := []struct {
		name      string
		base      Config
		scenarios []string
		n         int
		repeats   int
		seed      uint64
		trace     bool
		manifest  string
		records   string
	}{
		{
			name:      "untraced",
			base:      base,
			scenarios: obstacles,
			n:         25,
			repeats:   2,
			seed:      7,
			manifest:  "0975e3e08e83e25457b0c0c2829d9a51a332dce32dfd62054478748a0bc61d4c",
			records:   "237a8837679c2de3de2e8c609c9f7ad3cf23c53dc62f68f4e2757dcaa4ecbdc0",
		},
		{
			name:      "traced",
			base:      traced,
			scenarios: obstacles,
			n:         25,
			repeats:   2,
			seed:      11,
			trace:     true,
			manifest:  "d3693f27c2cca2f51ada6db9a936a93b6f7e33b52eccc193e4732fd4be998766",
			records:   "498f2e141a8bb159cb187025a5be9f920d534ae01af2447195ec73e22af47894",
		},
		{
			name:      "walks",
			base:      walks,
			scenarios: []string{"free", "random-obstacles"},
			n:         120,
			repeats:   1,
			seed:      13,
			manifest:  "2074ffbaf8c8660a23e812d7027c90f39c31785ccd869975c08840c658b19284",
			records:   "43f5a991ccbcf3d76f6f5b12a85d706d8a2a7470c321f257d3313f39c51e173b",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sweep := Sweep{
				Base:      tc.base,
				Schemes:   []Scheme{SchemeCPVF, SchemeFLOOR},
				Scenarios: tc.scenarios,
				Ns:        []int{tc.n},
				Repeats:   tc.repeats,
				Seed:      tc.seed,
			}
			dir := filepath.Join(t.TempDir(), "store")
			sr, err := sweep.Run(context.Background(), BatchOptions{
				Workers: 4,
				Store:   &Store{Dir: dir, Trace: tc.trace},
			})
			if err != nil {
				t.Fatal(err)
			}
			for file, want := range map[string]string{"manifest.json": tc.manifest, "records.jsonl": tc.records} {
				data, err := os.ReadFile(filepath.Join(dir, file))
				if err != nil {
					t.Fatal(err)
				}
				if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
					t.Errorf("%s sha256 = %x, want %s", file, sum, want)
				}
			}
			for _, br := range sr.Runs {
				res, err := Run(br.Spec.Config)
				if err != nil {
					t.Fatal(err)
				}
				if res.Coverage != br.Result.Coverage || res.Coverage2 != br.Result.Coverage2 {
					t.Errorf("run %d alone: coverage (%v, %v), batch (%v, %v)",
						br.Spec.Index, res.Coverage, res.Coverage2, br.Result.Coverage, br.Result.Coverage2)
				}
				if tc.trace && len(res.Trace) == 0 {
					t.Errorf("run %d alone: empty trace", br.Spec.Index)
				}
				if !reflect.DeepEqual(res.Trace, br.Result.Trace) {
					t.Errorf("run %d alone: trace differs from the batch run's", br.Spec.Index)
				}
			}
		})
	}
}
