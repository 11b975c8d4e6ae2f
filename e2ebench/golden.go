package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// defaultSeed is the seed the golden digests are recorded for.
const defaultSeed = 3

// goldenJSON maps each workload to the sha256 of its first batch's output
// at the default seed: the store's records.jsonl for fig13-random and
// dense-trace, the per-run Result metrics for free-n480, and the first
// job's records CSV for serve-mixed. Regenerate with -update-golden.
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return m, nil
}

// compareGolden checks a workload's output digest against the recorded
// one or, when updating, records it in opt.updated alone: the digests
// recorded for other workloads are left to their own runs.
func compareGolden(o *outcome, name string, opt options, digest string) {
	if opt.updated != nil {
		opt.updated[name] = digest
		return
	}
	switch want, ok := opt.golden[name]; {
	case !ok:
		o.fail("golden: no digest recorded for %s (run with -update-golden)", name)
	case want != digest:
		o.fail("golden: %s output digest %s, want %s", name, digest, want)
	}
}

// writeGolden merges updated digests into the golden file at path, keeping
// every entry of the file that updated does not name.
func writeGolden(path string, updated map[string]string) error {
	m := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &m); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range updated {
		m[k] = v
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
