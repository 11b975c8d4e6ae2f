package mobisense

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// axisSweep is a small two-axis sweep used across the axis tests.
func axisSweep() Sweep {
	return Sweep{
		Base:    sweepConfig(),
		Schemes: []Scheme{SchemeCPVF, SchemeFLOOR},
		Axes: []ParamAxis{
			AxisRc(50, 60),
			AxisFloorTTL(4, 8),
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
		p := point{sp.Repeat, axisTupleKey(sp.Axes)}
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
		Axes:    []ParamAxis{AxisRc(40, 60)},
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
	other.Axes = []ParamAxis{AxisRc(50, 70), AxisFloorTTL(4, 8)}
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

func TestAxisValidation(t *testing.T) {
	base := sweepConfig()
	for name, axes := range map[string][]ParamAxis{
		"empty name":     {NewAxis("", func(*Config, float64) {}, 1)},
		"no values":      {AxisRc()},
		"nil setter":     {{Name: "rc", Values: []float64{1}}},
		"duplicate name": {AxisRc(40), AxisRc(60)},
	} {
		if _, err := (Sweep{Base: base, Axes: axes}).Expand(); err == nil {
			t.Errorf("sweep with %s axis should error", name)
		}
	}
	if _, err := BuildAxis("bogus", 1, 2); err == nil {
		t.Error("unknown built-in axis should error")
	}
	names := AxisNames()
	want := []string{"cpvf.delta", "cpvf.osc", "field.density", "field.obstacles", "field.ref", "floor.ttl", "rc", "rs", "speed"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("AxisNames() = %v, want %v", names, want)
	}
}

func TestParseAxis(t *testing.T) {
	ax, err := ParseAxis("rc=30,45.5,60")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Name != "rc" || !reflect.DeepEqual(ax.Values, []float64{30, 45.5, 60}) {
		t.Errorf("ParseAxis = %q %v", ax.Name, ax.Values)
	}
	if ax.Set == nil {
		t.Error("parsed axis has no setter")
	}
	for _, bad := range []string{"", "rc", "rc=", "=30", "rc=a,b", "bogus=1"} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q) should error", bad)
		}
	}
}

// TestSpeedAndDeltaAxes applies the remaining built-in setters.
func TestSpeedAndDeltaAxes(t *testing.T) {
	s := Sweep{
		Base: sweepConfig(),
		Axes: []ParamAxis{AxisSpeed(1, 2), AxisRs(30, 40), AxisCPVFDelta(2, 8)},
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

// TestIntegerAxisValidation is the regression test for the silent
// floor.ttl truncation: integer-valued axes reject fractional values at
// every entry point (BuildAxis, ParseAxis, Sweep.Expand) instead of
// running one computation while recording another.
func TestIntegerAxisValidation(t *testing.T) {
	if _, err := BuildAxis("floor.ttl", 4, 6.5); err == nil {
		t.Error("BuildAxis(floor.ttl, 6.5) should reject the fractional value")
	}
	if _, err := ParseAxis("floor.ttl=4,4.5"); err == nil {
		t.Error("ParseAxis(floor.ttl=4.5) should reject the fractional value")
	}
	if _, err := ParseAxis("field.obstacles=2.5"); err == nil {
		t.Error("ParseAxis(field.obstacles=2.5) should reject the fractional value")
	}
	// Whole-number values pass and apply exactly.
	ax, err := ParseAxis("floor.ttl=4,8")
	if err != nil {
		t.Fatal(err)
	}
	if !ax.Integer {
		t.Error("floor.ttl should be an integer axis")
	}
	for _, v := range ax.Values {
		if got := (AxisValue{Value: v}).ValueString(); got != fmt.Sprintf("%d", int(v)) {
			t.Errorf("integer axis value %v renders as %q", v, got)
		}
	}
	// A custom integer axis is validated by the sweep too.
	custom := NewAxis("probe", func(*Config, float64) {}, 1, 2.5)
	custom.Integer = true
	if _, err := (Sweep{Base: sweepConfig(), Axes: []ParamAxis{custom}}).Expand(); err == nil {
		t.Error("sweep with fractional values on an integer axis should error")
	}
	// Float axes still accept fractions.
	if _, err := ParseAxis("rc=45.5,60"); err != nil {
		t.Errorf("float axis rejected fractional value: %v", err)
	}
	// The integer flag reaches the HTTP introspection layer.
	if !AxisIsInteger("floor.ttl") || AxisIsInteger("rc") {
		t.Error("AxisIsInteger misreports the built-ins")
	}
}

// TestFieldRefAxis: the base-station placement axis moves the reference
// point along the field diagonal, rebuilding the field per axis point
// while keeping it paired across schemes.
func TestFieldRefAxis(t *testing.T) {
	s := Sweep{
		Base:    sweepConfig(),
		Schemes: []Scheme{SchemeCPVF, SchemeFLOOR},
		Axes:    []ParamAxis{AxisFieldRef(0, 0.5)},
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
	bad := Sweep{Base: sweepConfig(), Axes: []ParamAxis{AxisFieldRef(5)}, Seed: 3}
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
		Axes:      []ParamAxis{AxisFieldObstacles(1, 3)},
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
	d := Sweep{Base: sweepConfig(), Axes: []ParamAxis{AxisFieldDensity(0.2)}, Seed: 17}
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
		Axes:      []ParamAxis{AxisRc(30, 60), AxisFieldObstacles(3)},
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
	s := Sweep{Base: base, Axes: []ParamAxis{AxisFieldDensity(0.5)}, Seed: 3}
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
