package mobisense

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	istore "mobisense/internal/store"
)

// Categorical (string-valued) axes must flow end-to-end: parse, sweep
// expansion, store records, sharded merge, aggregation and report keys.

func TestStringAxisParseAndBuild(t *testing.T) {
	ax, err := ParseAxis("cpvf.osc=none,two-step")
	if err != nil {
		t.Fatal(err)
	}
	if want := (AxisSpec{Name: "cpvf.osc", Strings: []string{"none", "two-step"}}); !reflect.DeepEqual(ax, want) {
		t.Fatalf("parsed axis = %+v, want %+v", ax, want)
	}
	if _, err := ParseAxis("cpvf.osc=sideways"); err == nil {
		t.Error("unknown categorical value should be rejected at parse time")
	}
	for _, info := range Axes() {
		if info.String != (info.Name == "cpvf.osc") {
			t.Errorf("Axes() marks %s string-valued = %v", info.Name, info.String)
		}
		if info.Name == "cpvf.osc" && len(info.Choices) != 3 {
			t.Errorf("cpvf.osc choices = %v, want the 3 oscillation modes", info.Choices)
		}
	}
}

// TestStringAxisManifestValues: a string axis is stored with "values":
// null whether the request left Values out or sent an empty list, so
// both are one sweep to the cache and to resume.
func TestStringAxisManifestValues(t *testing.T) {
	var manifests []istore.Manifest
	for _, values := range [][]float64{nil, {}} {
		s := Sweep{Base: sweepConfig(), Axes: []AxisSpec{{Name: "cpvf.osc", Values: values, Strings: []string{"none", "two-step"}}}}
		manifests = append(manifests, s.manifest(Shard{}, 2))
	}
	data, err := json.Marshal(manifests[1].Sweep.Axes)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[{"name":"cpvf.osc","values":null,"strings":["none","two-step"]}]`; string(data) != want {
		t.Errorf("stored axes = %s, want %s", data, want)
	}
	if !reflect.DeepEqual(manifests[0], manifests[1]) {
		t.Errorf("an empty values list changed the manifest:\n%+v\n%+v", manifests[0], manifests[1])
	}
}

func TestStringAxisExpansionSetsConfig(t *testing.T) {
	sweep := Sweep{
		Base:    sweepConfig(),
		Schemes: []Scheme{SchemeCPVF},
		Axes:    []AxisSpec{mustParseAxis(t, "cpvf.osc=none,one-step,two-step")},
		Repeats: 1,
		Seed:    9,
	}
	specs, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("expanded %d specs, want 3", len(specs))
	}
	for i, want := range []string{"none", "one-step", "two-step"} {
		sp := specs[i]
		if sp.Config.CPVF == nil || sp.Config.CPVF.Oscillation != want {
			t.Errorf("spec %d: config oscillation = %+v, want %q", i, sp.Config.CPVF, want)
		}
		if len(sp.Axes) != 1 || sp.Axes[0].Str != want || sp.Axes[0].Name != "cpvf.osc" {
			t.Errorf("spec %d: axes = %+v, want cpvf.osc=%q", i, sp.Axes, want)
		}
		if got := sp.Axes[0].ValueString(); got != want {
			t.Errorf("spec %d: ValueString = %q, want %q", i, got, want)
		}
	}
}

func mustParseAxis(t *testing.T, spec string) AxisSpec {
	t.Helper()
	ax, err := ParseAxis(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ax
}

// TestStringAxisShardedStoreMerge is the regression test for categorical
// axes through the full persistence pipeline: a sweep over a string axis
// runs unsharded and as two shards; the merged shards must reproduce the
// unsharded aggregates exactly, with the string values intact on every
// reloaded run and aggregate row.
func TestStringAxisShardedStoreMerge(t *testing.T) {
	cfg := sweepConfig()
	cfg.Scheme = SchemeCPVF
	sweep := Sweep{
		Base:    cfg,
		Schemes: []Scheme{SchemeCPVF},
		Axes: []AxisSpec{
			{Name: "rc", Values: []float64{50, 60}},
			mustParseAxis(t, "cpvf.osc=none,two-step"),
		},
		Repeats: 2,
		Seed:    23,
	}
	base := t.TempDir()
	full := filepath.Join(base, "full")
	want, err := sweep.Run(context.Background(), BatchOptions{Store: &Store{Dir: full}})
	if err != nil {
		t.Fatal(err)
	}

	shardDirs := []string{filepath.Join(base, "s0"), filepath.Join(base, "s1")}
	for i, dir := range shardDirs {
		if _, err := sweep.Run(context.Background(), BatchOptions{
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
	if !reflect.DeepEqual(merged.Aggregates, want.Aggregates) {
		t.Errorf("merged string-axis aggregates differ:\nmerged: %+v\nwant:   %+v",
			merged.Aggregates, want.Aggregates)
	}
	for _, br := range merged.Runs {
		if len(br.Spec.Axes) != 2 || br.Spec.Axes[1].Str == "" {
			t.Fatalf("reloaded run %d lost its string axis value: %+v", br.Spec.Index, br.Spec.Axes)
		}
	}

	// The string value must split aggregate rows: each (rc, osc)
	// combination is its own group.
	groups := map[string]bool{}
	for _, a := range want.Aggregates {
		groups[istore.AxesString(a.Axes)] = true
	}
	if len(groups) != 4 {
		t.Errorf("aggregates form %d axis groups %v, want 4", len(groups), groups)
	}
	for key := range groups {
		if !strings.Contains(key, "cpvf.osc=") {
			t.Errorf("aggregate group key %q lacks the categorical axis", key)
		}
	}

	// Resuming the completed store executes nothing — record keys with
	// string values round-trip through the resume index.
	executed := 0
	resumed, err := sweep.Run(context.Background(), BatchOptions{
		Store:      &Store{Dir: full, Resume: true},
		OnProgress: func(int, int) { executed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Errorf("resume executed %d runs, want 0", executed)
	}
	if !reflect.DeepEqual(resumed.Aggregates, want.Aggregates) {
		t.Error("resumed string-axis aggregates differ from live run")
	}
	// A different value list on the string axis is a different sweep.
	other := sweep
	other.Axes = []AxisSpec{{Name: "rc", Values: []float64{50, 60}}, mustParseAxis(t, "cpvf.osc=none,one-step")}
	if _, err := other.Run(context.Background(), BatchOptions{Store: &Store{Dir: full, Resume: true}}); err == nil {
		t.Error("resuming with different string-axis values should error")
	}
}
