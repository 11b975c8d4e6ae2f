package mobisense

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	istore "mobisense/internal/store"
)

// axisSweep is a small two-axis sweep used across the axis tests.
func axisSweep() Sweep {
	return Sweep{
		Base:    sweepConfig(),
		Schemes: []Scheme{SchemeCPVF, SchemeFLOOR},
		Axes: []AxisSpec{
			{Name: "rc", Values: []float64{50, 60}},
			{Name: "floor.ttl", Values: []float64{4, 8}},
		},
		Repeats: 2,
		Seed:    42,
	}
}

func TestAxisExpansion(t *testing.T) {
	specs, err := axisSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2*2*2*2 {
		t.Fatalf("expanded %d specs, want %d", len(specs), 2*2*2*2)
	}
	for _, sp := range specs {
		if len(sp.Axes) != 2 {
			t.Fatalf("run %d carries %d axis values, want 2", sp.Index, len(sp.Axes))
		}
		rc, ttl := sp.Axes[0], sp.Axes[1]
		if rc.Name != "rc" || ttl.Name != "floor.ttl" {
			t.Fatalf("run %d axes = %+v", sp.Index, sp.Axes)
		}
		// The setters must have applied the values to the config.
		if sp.Config.Rc != rc.Value {
			t.Errorf("run %d config rc = %g, axis says %g", sp.Index, sp.Config.Rc, rc.Value)
		}
		if sp.Config.Floor == nil || sp.Config.Floor.TTL != int(ttl.Value) {
			t.Errorf("run %d config TTL = %+v, axis says %g", sp.Index, sp.Config.Floor, ttl.Value)
		}
	}
	// The last axis is innermost: the first two specs differ in TTL only.
	if specs[0].Axes[0].Value != specs[1].Axes[0].Value ||
		specs[0].Axes[1].Value == specs[1].Axes[1].Value {
		t.Errorf("axis nesting wrong: spec0 %+v, spec1 %+v", specs[0].Axes, specs[1].Axes)
	}
	// Option-struct setters copy before writing: the expansion must not
	// reach back into the shared base config.
	s := axisSweep()
	s.Base.Floor = &FloorOptions{TTL: 99}
	specs2, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if s.Base.Floor.TTL != 99 {
		t.Errorf("axis setter mutated the shared base config: TTL = %d", s.Base.Floor.TTL)
	}
	if specs2[0].Config.Floor.TTL != 4 {
		t.Errorf("axis value not applied over base options: TTL = %d", specs2[0].Config.Floor.TTL)
	}
}

// TestAxisSeedsPairSchemes: axis indices enter seed derivation (distinct
// axis points get distinct seeds) while the scheme stays excluded (paired
// comparisons).
func TestAxisSeedsPairSchemes(t *testing.T) {
	specs, err := axisSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		repeat int
		axes   string
	}
	byPoint := map[point]uint64{}
	seen := map[uint64]string{}
	for _, sp := range specs {
		p := point{sp.Repeat, istore.AxesString(sp.Axes)}
		if prev, ok := byPoint[p]; ok {
			if prev != sp.Seed {
				t.Errorf("point %+v seeds differ across schemes: %d vs %d", p, prev, sp.Seed)
			}
			continue
		}
		byPoint[p] = sp.Seed
		if at, dup := seen[sp.Seed]; dup {
			t.Errorf("axis points %q and %+v share seed %d", at, p, sp.Seed)
		}
		seen[sp.Seed] = p.axes
	}
	// An axis-free sweep derives the exact pre-axis seeds.
	withAxes := axisSweep()
	withAxes.Axes = nil
	a, err := withAxes.Expand()
	if err != nil {
		t.Fatal(err)
	}
	pre := Sweep{Base: withAxes.Base, Schemes: withAxes.Schemes, Repeats: 2, Seed: 42}
	b, err := pre.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Seed != b[i].Seed {
			t.Fatalf("axis-free sweep changed seed derivation at run %d", i)
		}
	}
}

func TestFixedSeedSweep(t *testing.T) {
	s := axisSweep()
	s.FixedSeed = true
	s.Repeats = 1
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if sp.Seed != 42 {
			t.Fatalf("fixed-seed run %d got derived seed %d", sp.Index, sp.Seed)
		}
	}
}

// TestAggregateSplitsOnAxisValues is the regression test for the old
// (scheme, scenario, N) aggregation key: two rc values must never merge
// into one aggregate row.
func TestAggregateSplitsOnAxisValues(t *testing.T) {
	s := Sweep{
		Base:    sweepConfig(),
		Axes:    []AxisSpec{{Name: "rc", Values: []float64{40, 60}}},
		Repeats: 2,
		Seed:    7,
	}
	sr, err := s.Run(context.Background(), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Aggregates) != 2 {
		t.Fatalf("got %d aggregate rows for 2 rc values, want 2 (rc runs merged)", len(sr.Aggregates))
	}
	for i, want := range []float64{40, 60} {
		a := sr.Aggregates[i]
		if a.Runs != 2 {
			t.Errorf("aggregate %d has %d runs, want 2", i, a.Runs)
		}
		if len(a.Axes) != 1 || a.Axes[0].Name != "rc" || a.Axes[0].Value != want {
			t.Errorf("aggregate %d axes = %+v, want rc=%g", i, a.Axes, want)
		}
	}
	if reflect.DeepEqual(sr.Aggregates[0].Coverage, sr.Aggregates[1].Coverage) {
		t.Error("rc=40 and rc=60 coverage summaries are identical; the axis was not applied")
	}
}

// TestAxisStoreRoundTrip: axis sweeps persist, resume and shard-merge like
// every other sweep, with axis values carried in records and aggregates.
func TestAxisStoreRoundTrip(t *testing.T) {
	s := axisSweep()
	base := t.TempDir()
	full := filepath.Join(base, "full")
	want, err := s.Run(context.Background(), BatchOptions{Store: &Store{Dir: full}})
	if err != nil {
		t.Fatal(err)
	}

	// Resume of a complete axis store executes nothing.
	executed := 0
	resumed, err := s.Run(context.Background(), BatchOptions{
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
		t.Error("resumed axis aggregates differ from live run")
	}

	// Shards merge to the unsharded aggregates, axes intact.
	shardDirs := []string{filepath.Join(base, "s0"), filepath.Join(base, "s1")}
	for i, dir := range shardDirs {
		if _, err := s.Run(context.Background(), BatchOptions{
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
		t.Errorf("merged axis aggregates differ:\nmerged: %+v\nwant:   %+v",
			merged.Aggregates, want.Aggregates)
	}
	for _, br := range merged.Runs {
		if len(br.Spec.Axes) != 2 {
			t.Fatalf("loaded run %d lost its axes: %+v", br.Spec.Index, br.Spec.Axes)
		}
	}

	// Resuming with different axis values is a different sweep.
	other := s
	other.Axes = []AxisSpec{{Name: "rc", Values: []float64{50, 70}}, {Name: "floor.ttl", Values: []float64{4, 8}}}
	if _, err := other.Run(context.Background(), BatchOptions{Store: &Store{Dir: full, Resume: true}}); err == nil {
		t.Error("resuming with different axis values should error")
	}
	// ... and so is the same store definition with FixedSeed flipped.
	fixed := s
	fixed.FixedSeed = true
	if _, err := fixed.Run(context.Background(), BatchOptions{Store: &Store{Dir: full, Resume: true}}); err == nil {
		t.Error("resuming with FixedSeed flipped should error")
	}
}

// TestAxisValidation: a sweep refuses an axis the table does not
// resolve — an unknown or empty name, no values, values of the other
// kind, both kinds at once — and a repeated axis name, before any run.
func TestAxisValidation(t *testing.T) {
	base := sweepConfig()
	for name, axes := range map[string][]AxisSpec{
		"empty name":     {{Values: []float64{1}}},
		"unknown name":   {{Name: "bogus", Values: []float64{1, 2}}},
		"no values":      {{Name: "rc"}},
		"strings on rc":  {{Name: "rc", Strings: []string{"fast"}}},
		"numbers on osc": {{Name: "cpvf.osc", Values: []float64{1, 2}}},
		"both kinds":     {{Name: "cpvf.osc", Values: []float64{1}, Strings: []string{"none"}}},
		"unknown choice": {{Name: "cpvf.osc", Strings: []string{"sideways"}}},
		"duplicate name": {{Name: "rc", Values: []float64{40}}, {Name: "rc", Values: []float64{60}}},
	} {
		if _, err := (Sweep{Base: base, Axes: axes}).Expand(); err == nil {
			t.Errorf("sweep with %s axis should error", name)
		}
	}
	var names []string
	for _, info := range Axes() {
		names = append(names, info.Name)
	}
	want := []string{"cpvf.delta", "cpvf.osc", "field.density", "field.obstacles", "field.ref", "floor.ttl", "floor.ttl_frac", "rc", "rs", "speed"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("Axes() names = %v, want %v", names, want)
	}
}

// TestParseAxis: the CLI syntax parses to the axis's values, and a
// malformed spec, an unknown name or a value the table refuses — a
// negative number among them — is an error naming the cause.
func TestParseAxis(t *testing.T) {
	ax, err := ParseAxis("rc=30,45.5,60")
	if err != nil {
		t.Fatal(err)
	}
	if want := (AxisSpec{Name: "rc", Values: []float64{30, 45.5, 60}}); !reflect.DeepEqual(ax, want) {
		t.Errorf("ParseAxis = %+v, want %+v", ax, want)
	}
	for _, tc := range []struct{ spec, err string }{
		{"", "bad axis"},
		{"rc", "bad axis"},
		{"rc=", "bad axis"},
		{"=30", "bad axis"},
		{"rc=a,b", "not a number"},
		{"bogus=1", "unknown axis"},
		{"floor.ttl_fraction=0.1", "unknown axis"},
		{"floor.ttl=-5,0", `axis "floor.ttl" values must be finite numbers >= 0`},
		{"cpvf.delta=-3,0", `axis "cpvf.delta" values must be finite numbers >= 0`},
		{"field.density=-0.3", `axis "field.density" values must be finite numbers >= 0`},
		{"floor.ttl_frac=0.1,-0.4", `axis "floor.ttl_frac" values must be finite numbers >= 0`},
		{"rc=-Inf", "values must be finite numbers >= 0"},
		{"cpvf.osc=sideways", `has no value "sideways"`},
	} {
		if _, err := ParseAxis(tc.spec); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("ParseAxis(%q) error = %v, want one containing %q", tc.spec, err, tc.err)
		}
	}
}

// TestSpeedAndDeltaAxes applies the remaining built-in setters.
func TestSpeedAndDeltaAxes(t *testing.T) {
	s := Sweep{
		Base: sweepConfig(),
		Axes: []AxisSpec{
			{Name: "speed", Values: []float64{1, 2}},
			{Name: "rs", Values: []float64{30, 40}},
			{Name: "cpvf.delta", Values: []float64{2, 8}},
		},
	}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("expanded %d specs, want 8", len(specs))
	}
	last := specs[7].Config
	if last.Speed != 2 || last.Rs != 40 || last.CPVF == nil || last.CPVF.Delta != 8 {
		t.Errorf("last combo config = speed %g rs %g cpvf %+v", last.Speed, last.Rs, last.CPVF)
	}
}

// TestTTLFracAxis: Table 1's floor.ttl_frac resolves each fraction
// against the run's own N, TTL = int(fraction·N), over a copy of the
// base's FLOOR options.
func TestTTLFracAxis(t *testing.T) {
	base := sweepConfig()
	base.Floor = &FloorOptions{TTL: 99, ExclusiveFrac: 0.5}
	s := Sweep{Base: base, Ns: []int{120, 50}, Axes: []AxisSpec{{Name: "floor.ttl_frac", Values: []float64{0.1, 0.4}}}}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{12, 48, 5, 20} {
		if o := specs[i].Config.Floor; o.TTL != want || o.ExclusiveFrac != 0.5 {
			t.Errorf("run %d (N=%d, %+v): floor options %+v, want TTL %d", i, specs[i].N, specs[i].Axes, o, want)
		}
	}
	if base.Floor.TTL != 99 {
		t.Errorf("the axis wrote into the base's options: TTL = %d", base.Floor.TTL)
	}
}

// TestIntegerAxisValidation is the regression test for the silent
// floor.ttl truncation: integer-valued axes reject fractional values at
// every entry point (ParseAxis, Sweep.Expand) instead of running one
// computation while recording another.
func TestIntegerAxisValidation(t *testing.T) {
	for _, ax := range []AxisSpec{
		{Name: "floor.ttl", Values: []float64{4, 6.5}},
		{Name: "field.obstacles", Values: []float64{2.5}},
	} {
		if _, err := (Sweep{Base: sweepConfig(), Axes: []AxisSpec{ax}}).Expand(); err == nil {
			t.Errorf("sweep over %+v should reject the fractional value", ax)
		}
	}
	if _, err := ParseAxis("floor.ttl=4,4.5"); err == nil {
		t.Error("ParseAxis(floor.ttl=4.5) should reject the fractional value")
	}
	if _, err := ParseAxis("field.obstacles=2.5"); err == nil {
		t.Error("ParseAxis(field.obstacles=2.5) should reject the fractional value")
	}
	// Whole-number values pass and render without a decimal point.
	ax, err := ParseAxis("floor.ttl=4,8")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ax.Values {
		if got := (AxisValue{Value: v}).ValueString(); got != fmt.Sprintf("%d", int(v)) {
			t.Errorf("integer axis value %v renders as %q", v, got)
		}
	}
	// Float axes still accept fractions.
	if _, err := ParseAxis("rc=45.5,60"); err != nil {
		t.Errorf("float axis rejected fractional value: %v", err)
	}
	// The integer flag reaches the catalog.
	for _, info := range Axes() {
		if want := info.Name == "floor.ttl" || info.Name == "field.obstacles"; info.Integer != want {
			t.Errorf("Axes() marks %s integer = %v, want %v", info.Name, info.Integer, want)
		}
	}
}

// TestFieldRefAxis: the base-station placement axis moves the reference
// point along the field diagonal, rebuilding the field per axis point
// while keeping it paired across schemes.
func TestFieldRefAxis(t *testing.T) {
	s := Sweep{
		Base:    sweepConfig(),
		Schemes: []Scheme{SchemeCPVF, SchemeFLOOR},
		Axes:    []AxisSpec{{Name: "field.ref", Values: []float64{0, 0.5}}},
		Seed:    11,
	}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("expanded %d specs, want 4", len(specs))
	}
	refs := map[float64]PointSpec{}
	for _, sp := range specs {
		if sp.Config.specErr != nil {
			t.Fatalf("run %d field rebuild failed: %v", sp.Index, sp.Config.specErr)
		}
		got := *sp.Config.Field.Spec().Reference
		want := PointSpec{X: sp.Axes[0].Value * 1000, Y: sp.Axes[0].Value * 1000}
		if got != want {
			t.Errorf("run %d reference = %+v, want %+v", sp.Index, got, want)
		}
		if prev, ok := refs[sp.Axes[0].Value]; ok && prev != got {
			t.Errorf("axis point %g has unpaired references across schemes", sp.Axes[0].Value)
		}
		refs[sp.Axes[0].Value] = got
	}
	// Out-of-bounds placement fails that run (not the whole sweep) with a
	// clear error.
	bad := Sweep{Base: sweepConfig(), Axes: []AxisSpec{{Name: "field.ref", Values: []float64{5}}}, Seed: 3}
	sr, err := bad.Run(context.Background(), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Runs[0].Err == nil {
		t.Error("reference outside the field should fail the run")
	}
}

// TestFieldObstaclesAxis: the obstacle-count axis regenerates the run's
// field with exactly the requested number of random obstacles, sharing
// the generated field across schemes of one axis point.
func TestFieldObstaclesAxis(t *testing.T) {
	s := Sweep{
		Base:      sweepConfig(),
		Schemes:   []Scheme{SchemeCPVF, SchemeFLOOR},
		Scenarios: []string{"random-field"},
		Axes:      []AxisSpec{{Name: "field.obstacles", Values: []float64{1, 3}}},
		Seed:      13,
	}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	fieldsAt := map[float64]Field{}
	for _, sp := range specs {
		if sp.Config.specErr != nil {
			t.Fatalf("run %d field rebuild failed: %v", sp.Index, sp.Config.specErr)
		}
		want := int(sp.Axes[0].Value)
		if got := sp.Config.Field.NumObstacles(); got != want {
			t.Errorf("run %d has %d obstacles, want %d", sp.Index, got, want)
		}
		if g := sp.Config.Field.Spec().Generator; g == nil || g.MinCount != want || g.MaxCount != want {
			t.Errorf("run %d generator = %+v, want pinned count %d", sp.Index, g, want)
		}
		if prev, ok := fieldsAt[sp.Axes[0].Value]; ok && prev.f != sp.Config.Field.f {
			t.Errorf("axis point %g rebuilt distinct fields across schemes (cache miss)", sp.Axes[0].Value)
		}
		fieldsAt[sp.Axes[0].Value] = sp.Config.Field
	}
	// field.density on a plain field gains generated obstacles matching
	// the requested fraction (count = round(density * area / meanSide²)).
	d := Sweep{Base: sweepConfig(), Axes: []AxisSpec{{Name: "field.density", Values: []float64{0.2}}}, Seed: 17}
	dspecs, err := d.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if dspecs[0].Config.specErr != nil {
		t.Fatalf("density rebuild failed: %v", dspecs[0].Config.specErr)
	}
	// Default generator sides 80..400 → mean 240 → 0.2*1e6/57600 ≈ 3.
	if got := dspecs[0].Config.Field.NumObstacles(); got != 3 {
		t.Errorf("density 0.2 produced %d obstacles, want 3", got)
	}
}

// TestFieldAxesPairAcrossOtherAxes: regenerated environments derive
// from the (scenario, repeat) slot's field seed, so rc=30 and rc=60 (or
// two N values) of one comparison point deploy into the same random
// layout — only the field axes themselves and the repeat change it.
func TestFieldAxesPairAcrossOtherAxes(t *testing.T) {
	s := Sweep{
		Base:      sweepConfig(),
		Scenarios: []string{"random-field"},
		Ns:        []int{20, 30},
		Axes:      []AxisSpec{{Name: "rc", Values: []float64{30, 60}}, {Name: "field.obstacles", Values: []float64{3}}},
		Repeats:   2,
		Seed:      21,
	}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	byRepeat := map[int]Field{}
	for _, sp := range specs {
		if sp.Config.specErr != nil {
			t.Fatalf("run %d: %v", sp.Index, sp.Config.specErr)
		}
		if prev, ok := byRepeat[sp.Repeat]; ok {
			if prev.f != sp.Config.Field.f {
				t.Fatalf("repeat %d regenerated distinct layouts across rc/N (run %d)", sp.Repeat, sp.Index)
			}
			continue
		}
		byRepeat[sp.Repeat] = sp.Config.Field
	}
	if byRepeat[0].f == byRepeat[1].f {
		t.Error("distinct repeats should see distinct generated layouts")
	}
}

// TestFieldDensityOnSmallField: the density→count formula uses the side
// range the generator actually samples (clamped to the field), so small
// custom fields get obstacles instead of silently running empty.
func TestFieldDensityOnSmallField(t *testing.T) {
	small, err := BuildFieldSpec(FieldSpec{Bounds: RectSpec{MaxX: 200, MaxY: 200}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := sweepConfig()
	base.Field = small
	s := Sweep{Base: base, Axes: []AxisSpec{{Name: "field.density", Values: []float64{0.5}}}, Seed: 3}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Config.specErr != nil {
		t.Fatalf("density rebuild failed: %v", specs[0].Config.specErr)
	}
	// Clamped sides 80..200 → mean 140 → round(0.5·200²/140²) = 1.
	if got := specs[0].Config.Field.NumObstacles(); got != 1 {
		t.Errorf("density 0.5 on a 200 m field produced %d obstacles, want 1", got)
	}
}
